// Countermeasures: evaluates the paper's §VI mitigations — padding,
// splitting and compressing the interactive state-report JSON, each a
// report policy of the session's wire label — against the record-length
// attack, then demonstrates the residual channel the paper warns about:
// with lengths fully padded, downlink timing and the prefetch-discard
// volume still reveal the viewer's choices.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/attack"
	"repro/internal/defense"
	"repro/internal/media"
	"repro/internal/profiles"
	"repro/internal/script"
	"repro/internal/session"
	"repro/internal/tlsrec"
	"repro/internal/viewer"
	"repro/internal/wire"
)

func main() {
	g := script.Bandersnatch()
	enc := media.Encode(g, media.DefaultLadder, 77)
	cond := profiles.Fig2Ubuntu
	rng := wire.NewRNG(77)

	// Train the record-length attacker on undefended traffic.
	var training []*session.Trace
	for t := 0; t < 6; t++ {
		tr := run(g, enc, cond, rng.Fork(uint64(t+1)), 500+uint64(t)*97, "tls1.2", false)
		training = append(training, tr)
	}
	atk, err := attack.NewAttacker(training, g, script.BandersnatchMaxChoices)
	if err != nil {
		log.Fatal(err)
	}

	defenses := []struct{ name, wire string }{
		{"no defense", "tls1.2"},
		{"pad reports to 4096", "tls1.2+reports-pad-4096"},
		{"split reports into 1200-byte records", "tls1.2+reports-split-1200"},
		{"compress reports (55%)", "tls1.2+reports-compress-55"},
	}

	fmt.Println("record-length attack vs countermeasures:")
	for _, d := range defenses {
		var correct, total int
		for i := 0; i < 4; i++ {
			tr := run(g, enc, cond, rng.Fork(uint64(100+i)), 900+uint64(i)*53, d.wire, false)
			inf, err := atk.Infer(observe(tr))
			if err != nil {
				total += len(tr.GroundTruthDecisions())
				continue
			}
			c, t := attack.ScoreDecisions(inf.Decisions, tr.GroundTruthDecisions())
			correct += c
			total += t
		}
		fmt.Printf("  %-40s %d/%d choices recovered\n", d.name, correct, total)
	}

	// The residual channel: a structural timing attack on fully padded
	// traffic. The pair feature (type-2 report and first alternative
	// chunk request fired back-to-back at the decision) needs no
	// calibration and survives every length transform.
	fmt.Println("\nresidual timing channel (reports padded to 4096):")
	ta := &defense.TimingAttack{QuietBefore: 3 * time.Second, Feature: defense.FeaturePairs}

	var correct, total int
	for i := 0; i < 4; i++ {
		tr := run(g, enc, cond, rng.Fork(uint64(400+i)), 2500+uint64(i)*41, "tls1.2+reports-pad-4096", false)
		obs := observe(tr)
		events := ta.DetectEvents(obs.ClientRecords, obs.ServerRecords)
		decisions := ta.ClassifyEvents(events)
		times := questionTimes(tr)
		for i, j := range defense.MatchEvents(events, times, 6*time.Second) {
			if j < 0 {
				continue
			}
			total++
			if decisions[j] == tr.Result.Choices[i].TookDefault {
				correct++
			}
		}
	}
	fmt.Printf("  choice points still recovered from timing/volume: %d/%d\n", correct, total)
	fmt.Println("\nconclusion: fixing the JSON lengths is necessary but not sufficient,")
	fmt.Println("exactly as the paper's countermeasures section cautions.")
}

func run(g *script.Graph, enc *media.Encoding, cond profiles.Condition,
	vrng *wire.RNG, seed uint64, wireLabel string, noPrefetch bool) *session.Trace {
	w, err := session.ParseWire(wireLabel)
	if err != nil {
		log.Fatal(err)
	}
	pop := viewer.SamplePopulation(1, vrng)
	tr, err := session.Run(session.Config{
		Graph: g, Encoding: enc, Viewer: pop[0], Condition: cond,
		SessionID: fmt.Sprintf("cm-%d", seed), Seed: seed,
		DisablePrefetch: noPrefetch, Wire: w,
	})
	if err != nil {
		log.Fatal(err)
	}
	return tr
}

func observe(tr *session.Trace) *attack.Observation {
	cRecs, _, err := tlsrec.ParseStream(tr.ClientToServer.Bytes, tr.ClientToServer.TimeAt)
	if err != nil {
		log.Fatal(err)
	}
	return &attack.Observation{ClientRecords: cRecs, ServerRecords: tr.ServerRecords}
}

func questionTimes(tr *session.Trace) []time.Time {
	out := make([]time.Time, len(tr.Result.Choices))
	for i, c := range tr.Result.Choices {
		out[i] = c.QuestionAt
	}
	return out
}

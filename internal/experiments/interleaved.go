package experiments

import (
	"bytes"
	"fmt"
	"strings"

	"repro/internal/attack"
	"repro/internal/capture"
	"repro/internal/parallel"
	"repro/internal/profiles"
	"repro/internal/script"
	"repro/internal/session"
	"repro/internal/stats"
	"repro/internal/viewer"
	"repro/internal/wire"
)

// InterleavedPoint aggregates one noise level.
type InterleavedPoint struct {
	// NoiseFlows is the number of concurrent bulk-streaming flows mixed
	// into each capture.
	NoiseFlows int
	// Sessions is the number of attacked captures at this level.
	Sessions int
	// Detected counts captures where the monitor finalized on the
	// interactive flow rather than a noise flow.
	Detected int
	// DetectionRate is Detected / Sessions.
	DetectionRate float64
	// MeanAccuracy is the mean per-choice recovery over the captures
	// where detection succeeded (0 when none did).
	MeanAccuracy float64
	// MeanMargin is the mean decode margin over detected captures.
	MeanMargin float64
}

// InterleavedResult is the multi-flow scenario summary: how well the
// streaming monitor finds and decodes the interactive session when the
// capture interleaves it with background streaming noise.
type InterleavedResult struct {
	Points []InterleavedPoint
	Report string
}

// Interleaved runs the interleaved-capture experiment: for each noise
// level, render sessions with WritePcapMulti, feed each capture to an
// attack.Monitor in chunks (exercising the streaming path end to end),
// and score whether the monitor attacked the interactive flow and how
// many choices it recovered. The attacker trains once under
// ConditionUbuntu; units fan out across the worker pool deterministically.
func Interleaved(sessions int, noiseCounts []int, seed uint64) (*InterleavedResult, error) {
	if sessions <= 0 {
		sessions = 5
	}
	if len(noiseCounts) == 0 {
		noiseCounts = []int{0, 1, 2, 4}
	}
	g := script.Bandersnatch()
	enc := sharedEncoding(g, seed)
	cond := profiles.Fig2Ubuntu
	root := wire.NewRNG(seed)

	training, err := profileSessions(g, enc, cond, 3, 10,
		func(t int) (viewer.Viewer, uint64) {
			return viewer.SamplePopulation(1, root.Stream(uint64(t+1)))[0],
				seed + uint64(t)*131
		}, nil)
	if err != nil {
		return nil, err
	}
	atk, err := attack.NewAttacker(training, g, script.BandersnatchMaxChoices)
	if err != nil {
		return nil, err
	}

	// Simulate the test sessions once (TLS over TCP: capture renders the
	// server direction from its records) and attack each under every
	// noise level, so levels differ only in the interleaved noise.
	pop := viewer.SamplePopulation(sessions, root.Stream(77))
	traces, err := parallel.MapN(0, sessions, func(s int) (*session.Trace, error) {
		return runOne(g, enc, pop[s], cond, seed+uint64(4000+s*59), nil)
	})
	if err != nil {
		return nil, err
	}

	scores, err := parallel.MapN(0, len(noiseCounts)*sessions, func(i int) (captureScore, error) {
		tr := traces[i%sessions]
		data, err := renderCapture(tr, noiseCounts[i/sessions], seed+uint64(i)*13)
		if err != nil {
			return captureScore{}, err
		}
		return attackCapture(atk, data, tr.GroundTruthDecisions())
	})
	if err != nil {
		return nil, err
	}

	res := &InterleavedResult{}
	for ni, n := range noiseCounts {
		t := tally(scores[ni*sessions : (ni+1)*sessions])
		res.Points = append(res.Points, InterleavedPoint{
			NoiseFlows: n, Sessions: sessions, Detected: t.Detected,
			DetectionRate: t.DetectionRate,
			MeanAccuracy:  t.MeanAccuracy,
			MeanMargin:    t.MeanMargin,
		})
	}
	res.Report = renderInterleaved(res)
	return res, nil
}

// captureScore is one capture's outcome under the streaming attack.
type captureScore struct {
	// detected reports that the monitor finalized on the interactive
	// flow rather than a noise flow.
	detected       bool
	correct, total int
	margin         float64
}

// renderCapture renders tr with noiseFlows interleaved noise flows under
// capture seed capSeed.
func renderCapture(tr *session.Trace, noiseFlows int, capSeed uint64) ([]byte, error) {
	var buf bytes.Buffer
	err := capture.WritePcapMulti(&buf, tr, capture.MultiOptions{
		Options:    capture.Options{Seed: capSeed},
		NoiseFlows: noiseFlows,
	})
	return buf.Bytes(), err
}

// attackCapture feeds a rendered capture through a Monitor in 256 KiB
// chunks and scores the result against the session's decisions: whether
// the flow the monitor attacked is the client endpoint's, and how many
// of the choices it recovered.
func attackCapture(atk *attack.Attacker, data []byte, truth []bool) (captureScore, error) {
	// Close returns the Inference its attacked flow's SessionFinalized
	// carried, which names that flow among all the sessions concluded.
	finalized := map[*attack.Inference]attack.SessionFinalized{}
	m := attack.NewMonitor(atk, attack.MonitorOptions{OnEvent: func(ev attack.Event) {
		if f, ok := ev.(attack.SessionFinalized); ok {
			finalized[f.Inference] = f
		}
	}})
	const chunk = 256 << 10
	for off := 0; off < len(data); off += chunk {
		if err := m.Feed(data[off:min(off+chunk, len(data))]); err != nil {
			return captureScore{}, err
		}
	}
	inf, err := m.Close()
	if err != nil {
		return captureScore{}, err
	}
	ep := capture.DefaultEndpoints()
	sc := captureScore{margin: inf.DecodeMargin}
	attacked, ok := finalized[inf]
	sc.detected = ok && attacked.Flow.SrcAddr == ep.ClientAddr && attacked.Flow.SrcPort == ep.ClientPort
	sc.correct, sc.total = attack.ScoreDecisions(inf.Decisions, truth)
	return sc, nil
}

// tally aggregates capture scores.
func tally(scores []captureScore) AttackScore {
	var t AttackScore
	var accs, margins []float64
	var fullPaths int
	for _, sc := range scores {
		if sc.total > 0 && sc.correct == sc.total {
			fullPaths++
		}
		if !sc.detected {
			continue
		}
		t.Detected++
		if sc.total > 0 {
			accs = append(accs, float64(sc.correct)/float64(sc.total))
		}
		margins = append(margins, sc.margin)
	}
	n := float64(len(scores))
	t.DetectionRate = float64(t.Detected) / n
	t.FullPathRate = float64(fullPaths) / n
	t.MeanAccuracy = stats.Mean(accs)
	t.MeanMargin = stats.Mean(margins)
	return t
}

func renderInterleaved(res *InterleavedResult) string {
	var b strings.Builder
	b.WriteString("Interleaved captures: finding the interactive session among noise flows\n")
	b.WriteString("(streaming attack.Monitor fed in 256 KiB chunks per capture)\n")
	rows := [][]string{}
	for _, p := range res.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.NoiseFlows),
			fmt.Sprintf("%d/%d", p.Detected, p.Sessions),
			fmt.Sprintf("%.0f%%", 100*p.DetectionRate),
			fmt.Sprintf("%.1f%%", 100*p.MeanAccuracy),
			fmt.Sprintf("%.3f", p.MeanMargin),
		})
	}
	b.WriteString(stats.RenderTable(
		[]string{"noise flows", "detected", "detection", "choice accuracy", "margin"}, rows))
	return b.String()
}

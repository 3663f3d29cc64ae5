// Command wmattack runs the White Mirror attack on a captured session:
// it extracts client-side SSL record lengths from a pcap, classifies the
// interactive state reports, and prints the viewer's inferred choices
// and reconstructed path through the script graph.
//
// Usage:
//
//	wmattack -pcap session.pcap -os linux -browser firefox
//	wmattack -pcap session.pcap -live          # stream the capture, print events
//	wmattack -pcap tap.pcap -live -idle 2m     # rolling-window tap replay
//	wmattack -pcap h3.pcap -wire quic          # burst-feature attack on a QUIC capture
//	wmattack -pcap cm.pcap -wire tls1.2+reports-compress-55  # attacker re-profiled under a §VI policy
//
// Training happens in-process: the attacker profiles simulated sessions
// under the named condition and the capture's -wire stack first (the
// paper's per-condition training; every stack moves the bands), then
// attacks the capture. In -live mode the capture is fed to the
// streaming monitor in chunks and detection/choice events print as they
// fire, which is how the attack behaves against a link tap; the monitor
// runs in rolling-window mode by default, so flows finalize individually
// on FIN/RST or the -idle timeout and memory stays bounded however long
// the capture is. With -window=false every flow stays open until the
// capture ends, and Close concludes each one by the same rule, printing
// its FINALIZED or FLOW EXPIRED line then; the inference is the same. If
// a ground-truth sidecar from wmsession exists next to the pcap, the
// inference is scored against it.
//
// Exit status: 0 on a fully successful attack, 1 when inference fails,
// 2 when a ground-truth sidecar is present and any choice was missed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/attack"
	"repro/internal/media"
	"repro/internal/netem"
	"repro/internal/profiles"
	"repro/internal/quicrec"
	"repro/internal/script"
	"repro/internal/session"
	"repro/internal/viewer"
	"repro/internal/wire"
)

func main() {
	var (
		pcapPath = flag.String("pcap", "session.pcap", "capture to attack")
		osName   = flag.String("os", "linux", "condition OS: windows|linux|mac")
		platform = flag.String("platform", "desktop", "condition platform")
		browser  = flag.String("browser", "firefox", "condition browser")
		medium   = flag.String("medium", "wired", "condition connection")
		traffic  = flag.String("traffic", "morning", "condition traffic time")
		trainN   = flag.Int("train", 3, "profiling sessions for training")
		seed     = flag.Uint64("seed", 1000, "training seed")
		live     = flag.Bool("live", false, "feed the capture in chunks through the streaming monitor and print events as they fire")
		chunkKiB = flag.Int("chunk", 64, "live-mode feed chunk size in KiB")
		window   = flag.Bool("window", true, "live mode: rolling-window operation (bounded memory, per-flow FIN/RST/idle finalization); false keeps every flow open until the capture ends")
		idle     = flag.Duration("idle", 90*time.Second, "live window mode: idle timeout before a silent flow finalizes")
		wireSpec = flag.String("wire", "tls1.2", "train under the capture's wire stack and shaping policy: tls1.2[+R] | tls1.3[+pad-to-N|+pad-random-N|+R] | quic[+fixed-N|+pad-full-N|+pad-random-N+K], R = reports-pad-N|reports-split-N|reports-compress-P")
	)
	flag.Parse()

	cond := profiles.Condition{
		OS:          profiles.OS(*osName),
		Platform:    profiles.Platform(*platform),
		Browser:     profiles.Browser(*browser),
		Medium:      netem.Medium(*medium),
		TrafficTime: netem.TrafficTime(*traffic),
	}

	w, err := session.ParseWire(*wireSpec)
	if err != nil {
		fatal(err)
	}
	// QUIC bands are learned over composite bursts (a report plus the
	// variably-sized request merged behind it), so covering each class's
	// range takes more profiling sessions than TLS's exact record lengths;
	// raise the default unless the user chose a count.
	if w.Transport == quicrec.TransportQUIC {
		trainSet := false
		flag.Visit(func(f *flag.Flag) { trainSet = trainSet || f.Name == "train" })
		if !trainSet {
			*trainN = 10
		}
	}

	g := script.Bandersnatch()
	atk, err := train(g, cond, *trainN, *seed, w)
	if err != nil {
		fatal(err)
	}

	data, err := os.ReadFile(*pcapPath)
	if err != nil {
		fatal(err)
	}
	var inf *attack.Inference
	if *live {
		var win *attack.Window
		if *window {
			win = &attack.Window{IdleTimeout: *idle}
		}
		inf, err = attackLive(atk, data, *chunkKiB<<10, win)
	} else {
		inf, err = atk.InferPcap(data)
	}
	if err != nil {
		fatal(err)
	}

	fmt.Printf("attack on %s under (%s)\n\n", *pcapPath, cond)
	fmt.Printf("state reports classified: %d records\n", len(inf.Classified))
	fmt.Printf("choices inferred: %d", len(inf.Decisions))
	if inf.UsedConstrainedDecode {
		fmt.Printf(" (graph-constrained decode)")
	}
	fmt.Println()
	for i, d := range inf.Decisions {
		branch := "default"
		if !d {
			branch = "NON-DEFAULT"
		}
		fmt.Printf("  Q%d: %s\n", i+1, branch)
	}
	if len(inf.Path.Segments) > 0 {
		fmt.Printf("\nreconstructed path:")
		for _, s := range inf.Path.Segments {
			fmt.Printf(" %s", s)
		}
		fmt.Println()
	}
	if len(inf.Hypotheses) > 0 {
		fmt.Printf("\ndecode hypotheses (score = per-event alignment, D=default A=alternative):\n")
		for r, h := range inf.Hypotheses {
			fmt.Printf("  #%d  score %+.4f  explains %d/%d in-band reports  %s\n",
				r+1, h.Score, h.Matched, countReports(inf.Classified), decisionString(h.Decisions))
		}
		fmt.Printf("decode margin: %.4f over the runner-up hypothesis\n", inf.DecodeMargin)
	}

	// Score against the wmsession sidecar when present; an incomplete
	// recovery is a failed attack and exits non-zero.
	sidecar := *pcapPath + ".truth.json"
	if buf, err := os.ReadFile(sidecar); err == nil {
		var truth struct {
			Decisions []bool `json:"decisions"`
		}
		if err := json.Unmarshal(buf, &truth); err == nil {
			correct, total := attack.ScoreDecisions(inf.Decisions, truth.Decisions)
			fmt.Printf("\nground truth (%s): %d/%d choices recovered\n",
				sidecar, correct, total)
			if correct < total {
				fmt.Fprintln(os.Stderr, "wmattack: inference incomplete against ground truth")
				os.Exit(2)
			}
		}
	}
}

// attackLive streams the capture through a monitor in chunkBytes pieces,
// printing each event relative to the capture clock as it fires. With win
// non-nil the monitor runs in rolling-window mode — the link-tap regime:
// memory stays bounded, flows finalize individually on FIN/RST/idle (so
// SessionFinalized can fire mid-feed), and evicted flows are narrated.
func attackLive(atk *attack.Attacker, data []byte, chunkBytes int, win *attack.Window) (*attack.Inference, error) {
	if chunkBytes <= 0 {
		chunkBytes = 64 << 10
	}
	var epoch time.Time
	at := func(t time.Time) string {
		if epoch.IsZero() {
			epoch = t
		}
		return fmt.Sprintf("t+%7.2fs", t.Sub(epoch).Seconds())
	}
	m := attack.NewMonitor(atk, attack.MonitorOptions{Window: win, OnEvent: func(ev attack.Event) {
		switch e := ev.(type) {
		case attack.FlowDetected:
			fmt.Printf("[%s] FLOW DETECTED   %v  (%s record, %d bytes)\n",
				at(e.At), e.Flow, e.Class, e.Length)
		case attack.ChoiceInferred:
			branch := "default"
			if !e.TookDefault {
				branch = "NON-DEFAULT"
			}
			fmt.Printf("[%s] CHOICE INFERRED Q%d: %-11s  margin %.4f  running %s\n",
				at(e.At), e.Choice+1, branch, e.DecodeMargin, decisionString(e.Decisions))
		case attack.SessionFinalized:
			fmt.Printf("[session end] FINALIZED %v: %d choices decoded\n",
				e.Flow, len(e.Inference.Decisions))
		case attack.FlowExpired:
			fmt.Printf("[%s] FLOW EXPIRED    %v  (%s; %d records, %d bytes)\n",
				at(e.At), e.Flow, e.Reason, e.Records, e.Bytes)
		case attack.QUICFlowObserved:
			fmt.Printf("[%s] QUIC FLOW       %v  (version %#x, %d-byte DCID)\n",
				at(e.At), e.Flow, e.Version, e.DCIDLen)
		}
	}})
	for off := 0; off < len(data); off += chunkBytes {
		end := off + chunkBytes
		if end > len(data) {
			end = len(data)
		}
		if err := m.Feed(data[off:end]); err != nil {
			return nil, err
		}
	}
	inf, err := m.Close()
	if err != nil {
		return nil, err
	}
	fmt.Println()
	return inf, nil
}

// train profiles the service under cond — and under the capture's wire,
// which moves every band — drawing extra sessions until both report
// types appear in the training set.
func train(g *script.Graph, cond profiles.Condition, n int, seed uint64, w session.Wire) (*attack.Attacker, error) {
	enc := media.Encode(g, media.DefaultLadder, seed^0xabcd)
	var traces []*session.Trace
	for t := 0; t < n+8; t++ {
		pop := viewer.SamplePopulation(1, wire.NewRNG(seed+uint64(t)*17))
		tr, err := session.Run(session.Config{
			Graph: g, Encoding: enc, Viewer: pop[0], Condition: cond,
			SessionID: fmt.Sprintf("train-%d", t), Seed: seed + uint64(t)*101,
			Wire: w,
		})
		if err != nil {
			return nil, err
		}
		traces = append(traces, tr)
		if t >= n-1 && bothClasses(traces) {
			break
		}
	}
	return attack.NewAttackerWithTrainer(attack.TrainerFor(w), traces, g, script.BandersnatchMaxChoices)
}

func bothClasses(traces []*session.Trace) bool {
	var t1, t2 bool
	for _, e := range attack.TrainingSetFromTraces(traces) {
		switch e.Class {
		case attack.ClassType1:
			t1 = true
		case attack.ClassType2:
			t2 = true
		}
	}
	return t1 && t2
}

// decisionString renders a decision vector compactly (D = default branch,
// A = alternative), matching the dataset CSV notation.
func decisionString(decisions []bool) string {
	out := make([]byte, len(decisions))
	for i, d := range decisions {
		if d {
			out[i] = 'D'
		} else {
			out[i] = 'A'
		}
	}
	return string(out)
}

// countReports counts the hard in-band type-1/type-2 classifications.
func countReports(recs []attack.ClassifiedRecord) int {
	n := 0
	for _, r := range recs {
		if r.Class != attack.ClassOther {
			n++
		}
	}
	return n
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wmattack:", err)
	os.Exit(1)
}

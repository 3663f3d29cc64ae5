package whitemirror

// Regression coverage for the constrained decoder's short-path bias
// (ROADMAP, seed-era): attacking wmdataset session 003 of `-n 6 -seed 5`
// — a 9-choice, mostly-non-default walk — with bands profiled under a
// drifted condition used to yield a 3-choice escape path even though all
// 162 application records classify. The time-aware, memoized decoding
// engine must recover the full walk.

import (
	"fmt"
	"testing"

	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/media"
	"repro/internal/netem"
	"repro/internal/profiles"
	"repro/internal/script"
	"repro/internal/session"
	"repro/internal/viewer"
	"repro/internal/wire"
)

// driftTrainedAttacker replicates cmd/wmattack's in-process training loop
// under an explicit condition.
func driftTrainedAttacker(t *testing.T, g *script.Graph, cond profiles.Condition, n int, seed uint64) *attack.Attacker {
	t.Helper()
	enc := media.Encode(g, media.DefaultLadder, seed^0xabcd)
	var traces []*session.Trace
	for i := 0; i < n+8; i++ {
		pop := viewer.SamplePopulation(1, wire.NewRNG(seed+uint64(i)*17))
		tr, err := session.Run(session.Config{
			Graph: g, Encoding: enc, Viewer: pop[0], Condition: cond,
			SessionID: fmt.Sprintf("train-%d", i), Seed: seed + uint64(i)*101,
			Lean: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, tr)
		if i >= n-1 && attack.HasBothClasses(traces) {
			break
		}
	}
	atk, err := attack.NewAttacker(traces, g, script.BandersnatchMaxChoices)
	if err != nil {
		t.Fatal(err)
	}
	return atk
}

func TestSession003DriftedBandsRecoverFullPath(t *testing.T) {
	// The wmdataset fixture: -n 6 -seed 5, session 003.
	ds, err := dataset.Generate(dataset.Config{N: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	p := ds.Points[2]
	if p.Trace.SessionID != "iitm-003" {
		t.Fatalf("fixture drifted: point 2 is %s", p.Trace.SessionID)
	}
	truth := p.Trace.GroundTruthDecisions()
	if len(truth) != 9 {
		t.Fatalf("fixture drifted: session 003 has %d choices, want 9", len(truth))
	}

	// Train under windows/firefox while the capture is windows/chrome —
	// the firefox bands sit a handful of bytes high, so every type-1 and
	// the low tail of the type-2s fall out of band (the drift the ROADMAP
	// bug reproduced with wmattack's default browser flag).
	driftCond := profiles.Condition{
		OS: profiles.OSWindows, Platform: profiles.PlatformDesktop,
		Browser: profiles.BrowserFirefox,
		Medium:  netem.MediumWired, TrafficTime: netem.TrafficMorning,
	}
	atk := driftTrainedAttacker(t, ds.Graph, driftCond, 3, 1000)

	// End to end through the pcap path, exactly as wmattack consumes it.
	pcapBytes, err := CapturePcap(p.Trace, uint64(p.Index))
	if err != nil {
		t.Fatal(err)
	}
	inf, err := atk.InferPcap(pcapBytes)
	if err != nil {
		t.Fatal(err)
	}
	if !inf.UsedConstrainedDecode {
		t.Fatal("expected the constrained decoder to run (plain decode sees only orphan type-2s)")
	}
	if len(inf.Decisions) != len(truth) {
		t.Fatalf("short-path bias regressed: decoded %d choices (%v), truth has %d",
			len(inf.Decisions), inf.Decisions, len(truth))
	}
	correct, total := attack.ScoreDecisions(inf.Decisions, truth)
	if correct != total {
		t.Fatalf("recovered %d/%d decisions under drifted bands (truth %v, got %v)",
			correct, total, truth, inf.Decisions)
	}
	if len(inf.Hypotheses) < 2 {
		t.Errorf("expected a ranked hypothesis list, got %d entries", len(inf.Hypotheses))
	}
	if inf.DecodeMargin < 0 {
		t.Errorf("negative decode margin %f", inf.DecodeMargin)
	}
}

// TestDecodeAccuracySmoke is the CI decode-accuracy gate: the headline
// accuracy driver on a small seed set must hold the post-fix baseline
// (100% mean at these seeds; the threshold leaves one decision of
// headroom). Run in the workflow as its own step so a decoder regression
// fails loudly and by name.
func TestDecodeAccuracySmoke(t *testing.T) {
	for _, seed := range []uint64{3, 5, 9} {
		res, err := experiments.Accuracy(6, 2, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Mean < 0.97 {
			t.Errorf("seed %d: mean decision accuracy %.1f%% below the post-fix baseline (97%%)\n%s",
				seed, 100*res.Mean, res.Report)
		}
	}
}

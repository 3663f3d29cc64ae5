package whitemirror

// Regression coverage for the QUIC/HTTP3 scenario (ISSUE 8): the attack
// must survive the loss of cleartext record boundaries — classifying
// burst totals instead of record lengths — hold its accuracy under
// same-transport cover traffic, and decline to train when a datagram
// sizing defense reshapes the bursts.

import (
	"testing"

	"repro/internal/attack"
	"repro/internal/experiments"
)

// TestQUICAccuracyRegression is the CI quic gate: the sweep's headline
// rows at the default seed. Default sizing must detect >= 90% of
// sessions and decode >= 90% of choices at 0-2 noise flows (the ISSUE
// acceptance bar; measured 100% at this seed), and the pad-random
// dummy-datagram defense must defeat interval-band training outright
// rather than misclassify.
func TestQUICAccuracyRegression(t *testing.T) {
	quic := mustWire(t, "quic")
	cells := []experiments.ShapingCell{
		{Wire: quic, NoiseFlows: 0},
		{Wire: quic, NoiseFlows: 1},
		{Wire: quic, NoiseFlows: 2},
		{Wire: mustWire(t, "quic+pad-random-1350+2"), NoiseFlows: 2},
	}
	res, err := experiments.Shaping(4, cells, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(cells) {
		t.Fatalf("got %d points for %d cells", len(res.Points), len(cells))
	}
	for _, pt := range res.Points[:3] {
		if !pt.Trainable {
			t.Fatalf("%s failed training: %s", pt.Cell.Label(), pt.TrainError)
		}
		if pt.DetectionRate < 0.90 {
			t.Errorf("%s detection %.0f%% below the 90%% bar\n%s",
				pt.Cell.Label(), 100*pt.DetectionRate, res.Report)
		}
		if pt.MeanAccuracy < 0.90 {
			t.Errorf("%s decode accuracy %.1f%% below the 90%% bar\n%s",
				pt.Cell.Label(), 100*pt.MeanAccuracy, res.Report)
		}
	}
	if rand := res.Points[3]; rand.Trainable {
		t.Error("pad-random-1350+2 should defeat interval-band training (bands overlap), but trained")
	} else if rand.TrainError == "" {
		t.Error("untrainable policy carries no training error for the report")
	}
}

// TestQUICMonitorMatchesBatch extends the streaming-equivalence contract
// to QUIC captures: a monitor fed a multi-flow UDP capture in chunks
// returns exactly what the one-shot wrapper returns, and both recover
// the viewer's full path from burst totals alone.
func TestQUICMonitorMatchesBatch(t *testing.T) {
	quic := mustWire(t, "quic")
	atk, err := TrainAttacker(TrainingOptions{
		Condition: ConditionUbuntu, Seed: 99,
		Wire: quic, Sessions: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Simulate(SessionOptions{
		Seed: 2, Condition: ConditionUbuntu, Wire: quic,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := CapturePcapMulti(tr, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := atk.InferPcap(data)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(atk, MonitorOptions{})
	const chunk = 63 << 10
	for off := 0; off < len(data); off += chunk {
		end := min(off+chunk, len(data))
		if err := m.Feed(data[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	got, err := m.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Decisions) != len(want.Decisions) {
		t.Fatalf("streamed decode %v differs from one-shot %v", got.Decisions, want.Decisions)
	}
	for i := range got.Decisions {
		if got.Decisions[i] != want.Decisions[i] {
			t.Fatalf("streamed decode %v differs from one-shot %v", got.Decisions, want.Decisions)
		}
	}
	correct, total := attack.ScoreDecisions(got.Decisions, tr.GroundTruthDecisions())
	if correct != total {
		t.Errorf("QUIC capture decoded %d/%d choices", correct, total)
	}
}

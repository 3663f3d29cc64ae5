package whitemirror

// Regression coverage for the TLS 1.3 record-layer scenario (ISSUE 5):
// the attack must hold its accuracy when the service negotiates the
// modern record layer, degrade gracefully — not silently — under RFC 8446
// record padding, and decline to train when a padding envelope smears the
// report bands together.

import (
	"testing"

	"repro/internal/attack"
	"repro/internal/experiments"
)

// TestTLS13AccuracyRegression is the CI tls13 gate: the sweep's headline
// rows at the default seed. Unpadded TLS 1.3 must detect every session
// and decode >= 95% of choices (the ISSUE acceptance bar; measured 100%
// at this seed), pad-to-64 must stay trainable and equally accurate on
// the sessions it detects (the buckets stay separable — padding this
// narrow buys nothing), and pad-random-512 must defeat interval-band
// training outright rather than misclassify.
func TestTLS13AccuracyRegression(t *testing.T) {
	cells := []experiments.ShapingCell{
		{Wire: mustWire(t, "tls1.3"), NoiseFlows: 2},
		{Wire: mustWire(t, "tls1.3+pad-to-64"), NoiseFlows: 2},
		{Wire: mustWire(t, "tls1.3+pad-random-512"), NoiseFlows: 2},
	}
	res, err := experiments.Shaping(4, cells, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(cells) {
		t.Fatalf("got %d points for %d cells", len(res.Points), len(cells))
	}
	none, pad64, rand512 := res.Points[0], res.Points[1], res.Points[2]

	if !none.Trainable {
		t.Fatalf("unpadded TLS 1.3 failed training: %s", none.TrainError)
	}
	if none.DetectionRate < 1.0 {
		t.Errorf("unpadded TLS 1.3 detection %.0f%%, want 100%%\n%s",
			100*none.DetectionRate, res.Report)
	}
	if none.MeanAccuracy < 0.95 {
		t.Errorf("unpadded TLS 1.3 decode accuracy %.1f%% below the 95%% bar\n%s",
			100*none.MeanAccuracy, res.Report)
	}

	if !pad64.Trainable {
		t.Fatalf("pad-to-64 failed training: %s", pad64.TrainError)
	}
	if pad64.DetectionRate < 0.75 {
		t.Errorf("pad-to-64 detection %.0f%% below the pinned 75%%\n%s",
			100*pad64.DetectionRate, res.Report)
	}
	if pad64.MeanAccuracy < 0.95 {
		t.Errorf("pad-to-64 decode accuracy %.1f%% below the pinned 95%%\n%s",
			100*pad64.MeanAccuracy, res.Report)
	}
	if pad64.OverheadPct <= 0 || pad64.OverheadPct > 15 {
		t.Errorf("pad-to-64 overhead %.1f%% implausible (want (0, 15]%%)", pad64.OverheadPct)
	}

	if rand512.Trainable {
		t.Error("pad-random-512 should defeat interval-band training (bands overlap), but trained")
	}
	if rand512.TrainError == "" {
		t.Error("untrainable policy carries no training error for the report")
	}
}

// TestTLS13MonitorMatchesInferPcap extends the streaming-equivalence
// contract to 1.3 captures: a monitor fed a TLS 1.3 multi-flow capture in
// chunks returns exactly what the one-shot wrapper returns, and both
// recover the viewer's full path.
func TestTLS13MonitorMatchesInferPcap(t *testing.T) {
	padded := mustWire(t, "tls1.3+pad-to-64")
	atk, err := TrainAttacker(TrainingOptions{
		Condition: ConditionUbuntu, Seed: 99, Wire: padded,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Simulate(SessionOptions{
		Seed: 2, Condition: ConditionUbuntu, Wire: padded,
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
		t.Errorf("padded TLS 1.3 capture decoded %d/%d choices", correct, total)
	}
}

package whitemirror

// Determinism tests for the parallel execution engine: every parallelized
// layer must produce byte-identical output at any worker count, because
// per-task randomness derives from the root seed, never from scheduling.

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/parallel"
)

// workerCounts are the counts every layer is checked at; GOMAXPROCS
// duplicates one of the fixed counts on small machines, which is harmless.
func workerCounts() []int {
	return []int{1, 4, runtime.GOMAXPROCS(0)}
}

func TestDatasetGenerateDeterministicAcrossWorkers(t *testing.T) {
	const n, seed = 12, 99
	ref, err := dataset.Generate(dataset.Config{N: n, Seed: seed, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts()[1:] {
		ds, err := dataset.Generate(dataset.Config{N: n, Seed: seed, Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if len(ds.Points) != len(ref.Points) {
			t.Fatalf("workers=%d: %d points, want %d", w, len(ds.Points), len(ref.Points))
		}
		for i := range ref.Points {
			a, b := ref.Points[i], ds.Points[i]
			if a.Viewer.ID != b.Viewer.ID || a.Condition != b.Condition {
				t.Fatalf("workers=%d: point %d assignment differs", w, i)
			}
			if !bytes.Equal(a.Trace.ClientToServer.Bytes, b.Trace.ClientToServer.Bytes) {
				t.Fatalf("workers=%d: point %d client stream differs", w, i)
			}
			if len(a.Trace.ServerRecords) == 0 {
				t.Fatalf("point %d has no server records", i)
			}
			if !reflect.DeepEqual(a.Trace.ServerRecords, b.Trace.ServerRecords) {
				t.Fatalf("workers=%d: point %d server records differ", w, i)
			}
			if !reflect.DeepEqual(a.Trace.GroundTruthDecisions(), b.Trace.GroundTruthDecisions()) {
				t.Fatalf("workers=%d: point %d decisions differ", w, i)
			}
		}
	}
}

func TestTrainAttackerDeterministicAcrossWorkers(t *testing.T) {
	ref, err := TrainAttacker(TrainingOptions{Seed: 7, Sessions: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Simulate(SessionOptions{Seed: 123})
	if err != nil {
		t.Fatal(err)
	}
	pcapBytes, err := CapturePcap(tr, 123)
	if err != nil {
		t.Fatal(err)
	}
	refInf, err := ref.InferPcap(pcapBytes)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts()[1:] {
		atk, err := TrainAttacker(TrainingOptions{Seed: 7, Sessions: 4, Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !reflect.DeepEqual(ref.Classifier, atk.Classifier) {
			t.Fatalf("workers=%d: trained classifier differs", w)
		}
		inf, err := atk.InferPcap(pcapBytes)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !reflect.DeepEqual(refInf.Decisions, inf.Decisions) {
			t.Fatalf("workers=%d: inference differs: %v vs %v", w, refInf.Decisions, inf.Decisions)
		}
	}
}

func TestAccuracyDeterministicAcrossWorkers(t *testing.T) {
	defer parallel.SetDefaultWorkers(0)
	parallel.SetDefaultWorkers(1)
	ref, err := experiments.Accuracy(6, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts()[1:] {
		parallel.SetDefaultWorkers(w)
		res, err := experiments.Accuracy(6, 2, 3)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !reflect.DeepEqual(ref.Sessions, res.Sessions) {
			t.Fatalf("workers=%d: session scores differ", w)
		}
		if ref.Report != res.Report {
			t.Fatalf("workers=%d: rendered report differs", w)
		}
	}
}

// TestSimulateLeanMatchesMaterialized pins the lean-session contract. A
// TCP session never materializes its server bytes (ServerRecords
// describes them), so a lean TCP trace equals a full one. A lean QUIC
// session drops only the server datagram bytes: everything else agrees
// with the full run, whose datagrams cover its whole server stream.
func TestSimulateLeanMatchesMaterialized(t *testing.T) {
	full, err := Simulate(SessionOptions{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	lean, err := Simulate(SessionOptions{Seed: 31, Lean: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, lean) {
		t.Error("lean and materialized TCP traces differ")
	}
	if full.ServerToClient.Bytes != nil {
		t.Errorf("TCP trace materialized %d server bytes", len(full.ServerToClient.Bytes))
	}
	if len(full.ServerRecords) == 0 {
		t.Fatal("no server records collected")
	}

	t.Run("quic", func(t *testing.T) {
		quic := mustWire(t, "quic")
		full, err := Simulate(SessionOptions{Seed: 31, Wire: quic})
		if err != nil {
			t.Fatal(err)
		}
		lean, err := Simulate(SessionOptions{Seed: 31, Wire: quic, Lean: true})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(full.ClientToServer.Bytes, lean.ClientToServer.Bytes) {
			t.Error("client streams differ between lean and materialized runs")
		}
		if len(lean.ServerToClient.Bytes) != 0 {
			t.Errorf("lean run materialized %d server bytes", len(lean.ServerToClient.Bytes))
		}
		if !reflect.DeepEqual(full.ServerToClient.Datagrams, lean.ServerToClient.Datagrams) {
			t.Error("server datagram descriptors differ between lean and materialized runs")
		}
		if !reflect.DeepEqual(full.GroundTruthDecisions(), lean.GroundTruthDecisions()) {
			t.Error("decisions differ between lean and materialized runs")
		}
		total := 0
		for _, d := range full.ServerToClient.Datagrams {
			total += d.Size
		}
		if total == 0 || total != len(full.ServerToClient.Bytes) {
			t.Errorf("server datagrams cover %d bytes, stream has %d", total, len(full.ServerToClient.Bytes))
		}
	})
}

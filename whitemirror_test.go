package whitemirror

import (
	"bytes"
	"strings"
	"testing"
)

// mustWire parses a wire label for a test.
func mustWire(tb testing.TB, label string) Wire {
	tb.Helper()
	w, err := ParseWire(label)
	if err != nil {
		tb.Fatal(err)
	}
	return w
}

// TestFullLoopThroughPublicAPI is the root integration test: simulate →
// capture to pcap → train → attack → verify against ground truth, all
// through the facade.
func TestFullLoopThroughPublicAPI(t *testing.T) {
	atk, err := TrainAttacker(TrainingOptions{Condition: ConditionUbuntu, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		tr, err := Simulate(SessionOptions{Seed: seed, Condition: ConditionUbuntu})
		if err != nil {
			t.Fatal(err)
		}
		pcapBytes, err := CapturePcap(tr, seed)
		if err != nil {
			t.Fatal(err)
		}
		inf, err := atk.InferPcap(pcapBytes)
		if err != nil {
			t.Fatal(err)
		}
		truth := tr.GroundTruthDecisions()
		if len(inf.Decisions) != len(truth) {
			t.Fatalf("seed %d: inferred %d decisions, truth has %d",
				seed, len(inf.Decisions), len(truth))
		}
		for i := range truth {
			if inf.Decisions[i] != truth[i] {
				t.Errorf("seed %d decision %d: got %v, want %v",
					seed, i, inf.Decisions[i], truth[i])
			}
		}
	}
}

func TestSimulateDeterministic(t *testing.T) {
	a, err := Simulate(SessionOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(SessionOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.ClientToServer.Bytes, b.ClientToServer.Bytes) {
		t.Error("identical seeds produced different traces")
	}
}

func TestWritePcapMatchesCapturePcap(t *testing.T) {
	tr, err := Simulate(SessionOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	mem, err := CapturePcap(tr, 7)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePcap(&buf, tr, 7); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mem, buf.Bytes()) {
		t.Error("CapturePcap and WritePcap disagree")
	}
}

func TestConditionsGridExposed(t *testing.T) {
	if len(Conditions()) != 72 {
		t.Errorf("conditions = %d, want 72 (3 OS x 2 platforms x 2 browsers x 2 media x 3 times)",
			len(Conditions()))
	}
}

func TestDescribeChoices(t *testing.T) {
	g := Bandersnatch()
	atk, err := TrainAttacker(TrainingOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Simulate(SessionOptions{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	pcapBytes, err := CapturePcap(tr, 13)
	if err != nil {
		t.Fatal(err)
	}
	inf, err := atk.InferPcap(pcapBytes)
	if err != nil {
		t.Fatal(err)
	}
	lines := DescribeChoices(g, inf)
	if len(lines) != len(inf.Decisions) {
		t.Fatalf("described %d choices for %d decisions", len(lines), len(inf.Decisions))
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "Q1") || !strings.Contains(joined, "reveals") {
		t.Errorf("descriptions malformed:\n%s", joined)
	}
}

func TestGenerateDatasetFacade(t *testing.T) {
	ds, err := GenerateDataset(5, 17)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Points) != 5 {
		t.Errorf("points = %d", len(ds.Points))
	}
	if !strings.Contains(ds.TableI(), "Gender") {
		t.Error("Table I malformed")
	}
}

func TestSimulateCustomViewer(t *testing.T) {
	v := Viewer{ID: "custom", Decisiveness: 0.9}
	tr, err := Simulate(SessionOptions{Seed: 19, Viewer: &v})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Viewer.ID != "custom" {
		t.Errorf("viewer = %q", tr.Viewer.ID)
	}
}

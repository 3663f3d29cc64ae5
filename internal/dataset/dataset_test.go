package dataset

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/profiles"
)

var (
	smallOnce sync.Once
	smallDS   *Dataset
	smallErr  error
)

// smallDataset generates a 12-point dataset once and shares it across
// tests (full generation of 100 is exercised by the benchmark harness;
// tests keep runtime modest).
func smallDataset(t *testing.T) *Dataset {
	t.Helper()
	smallOnce.Do(func() {
		smallDS, smallErr = Generate(Config{N: 12, Seed: 7})
	})
	if smallErr != nil {
		t.Fatal(smallErr)
	}
	return smallDS
}

func TestGenerateCount(t *testing.T) {
	ds := smallDataset(t)
	if len(ds.Points) != 12 {
		t.Fatalf("points = %d", len(ds.Points))
	}
	for i, p := range ds.Points {
		if p.Trace == nil {
			t.Fatalf("point %d has no trace", i)
		}
		if len(p.Trace.GroundTruthDecisions()) == 0 {
			t.Errorf("point %d has no decisions", i)
		}
		if p.Trace.SessionID == "" {
			t.Errorf("point %d has no session ID", i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(Config{N: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Config{N: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Points {
		da := a.Points[i].Trace.GroundTruthDecisions()
		db := b.Points[i].Trace.GroundTruthDecisions()
		if len(da) != len(db) {
			t.Fatalf("point %d decision counts differ", i)
		}
		for j := range da {
			if da[j] != db[j] {
				t.Fatalf("point %d decision %d differs", i, j)
			}
		}
	}
}

func TestConditionsVary(t *testing.T) {
	ds := smallDataset(t)
	seen := map[string]bool{}
	for _, p := range ds.Points {
		seen[p.Condition.String()] = true
	}
	if len(seen) < 6 {
		t.Errorf("only %d distinct conditions over 12 points", len(seen))
	}
}

func TestWriteAndReadBack(t *testing.T) {
	ds, err := Generate(Config{N: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := ds.WriteTo(dir); err != nil {
		t.Fatal(err)
	}
	// Three pcap + three label json files, plus the manifest.
	pcaps, _ := filepath.Glob(filepath.Join(dir, "*.pcap"))
	jsons, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(pcaps) != 3 || len(jsons) != 4 {
		t.Fatalf("files: %d pcap, %d json", len(pcaps), len(jsons))
	}
	man, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Points) != 3 || man.N != 3 || man.Shard != "" {
		t.Fatalf("manifest: n=%d shard=%q points=%d", man.N, man.Shard, len(man.Points))
	}
	// Pcaps must be non-trivial.
	for _, p := range pcaps {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() < 10_000 {
			t.Errorf("%s is only %d bytes", p, st.Size())
		}
	}
	metas, err := ReadMetadata(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 3 {
		t.Fatalf("metadata entries = %d", len(metas))
	}
	for i, m := range metas {
		want := ds.Points[i].Trace.GroundTruthDecisions()
		if len(m.Decisions) != len(want) {
			t.Errorf("meta %d decisions = %d, want %d", i, len(m.Decisions), len(want))
		}
		if len(m.Segments) == 0 {
			t.Errorf("meta %d has no segments", i)
		}
	}
}

// TestGenerateToFailureLeavesPrefix pins the failure contract DATASET.md
// states: only the in-order emit writes, so a run that fails at point i
// leaves no manifest.json and only the points below i, even though the
// workers have already encoded points past it. A directory squatting on
// 004.pcap makes point 3's write fail.
func TestGenerateToFailureLeavesPrefix(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "004.pcap"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, _, err := GenerateTo(Config{N: 8, Seed: 5, Workers: 4}, dir, true); err == nil {
		t.Fatal("GenerateTo succeeded with point 3's capture unwritable")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	want := []string{"001.json", "001.pcap", "002.json", "002.pcap", "003.json", "003.pcap", "004.pcap"}
	if !slices.Equal(names, want) {
		t.Fatalf("failed run left %v, want %v", names, want)
	}
}

func TestTableIContainsAllAxes(t *testing.T) {
	ds := smallDataset(t)
	table := ds.TableI()
	for _, want := range []string{
		"Operating System", "Platform", "Traffic Conditions", "Connection Type",
		"Browser", "Age-group", "Gender", "Political Alignment", "State of Mind",
		"windows", "linux", "mac", "wired", "wireless",
	} {
		if !strings.Contains(table, want) {
			t.Errorf("Table I missing %q", want)
		}
	}
}

func TestTableICountsSum(t *testing.T) {
	ds := smallDataset(t)
	table := ds.TableI()
	// Each attribute's counts must sum to N; spot-check the platform axis
	// by parsing its two rows.
	var desktop, laptop int
	for _, line := range strings.Split(table, "\n") {
		f := strings.Fields(line)
		if len(f) >= 4 && f[1] == "Platform" {
			switch f[2] {
			case "desktop":
				desktop = atoiOr(t, f[3])
			case "laptop":
				laptop = atoiOr(t, f[3])
			}
		}
	}
	if desktop+laptop != len(ds.Points) {
		t.Errorf("platform counts %d+%d != %d", desktop, laptop, len(ds.Points))
	}
}

func atoiOr(t *testing.T, s string) int {
	t.Helper()
	var n int
	for _, c := range s {
		if c < '0' || c > '9' {
			t.Fatalf("not a number: %q", s)
		}
		n = n*10 + int(c-'0')
	}
	return n
}

func TestAttributesCSV(t *testing.T) {
	ds := smallDataset(t)
	var buf bytes.Buffer
	if err := ds.WriteAttributesCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 13 { // header + 12 rows
		t.Fatalf("CSV lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "session,os,platform") {
		t.Errorf("header = %q", lines[0])
	}
	// Decisions column uses D/A strings.
	if !strings.Contains(lines[1], ",D") && !strings.Contains(lines[1], ",A") {
		t.Errorf("row lacks decision string: %q", lines[1])
	}
}

func TestGenerateCustomConditions(t *testing.T) {
	ds, err := Generate(Config{N: 4, Seed: 13,
		Conditions: []profiles.Condition{profiles.Fig2Ubuntu}})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ds.Points {
		if p.Condition != profiles.Fig2Ubuntu {
			t.Errorf("point condition = %v", p.Condition)
		}
	}
}

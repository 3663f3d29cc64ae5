package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/media"
	"repro/internal/pcapio"
	"repro/internal/profiles"
	"repro/internal/script"
)

func testEncoding(seed uint64) *media.Encoding {
	return media.EncodeCached(script.Bandersnatch(), media.DefaultLadder, seed^0xabcd)
}

// TestCatalogueMatchesBenchmarkJSON pins BENCHMARK.json to the metric
// catalogues the command reports and the workloads it runs.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range top {
		keys = append(keys, k)
	}
	want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	if len(keys) != len(want) {
		t.Fatalf("BENCHMARK.json keys %v, want %v", keys, want)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d reported", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, reported %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d reported", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s %s, reported %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestInputsDeterministic checks that every input generator gives the
// same bytes for a seed and different bytes for another seed.
func TestInputsDeterministic(t *testing.T) {
	enc := testEncoding(1)
	a, err := inferRound(1, 0, 2, enc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := inferRound(1, 0, 2, enc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := inferRound(2, 0, 2, enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("infer-batch round differs between two runs with one seed")
	}
	if bytes.Equal(a[0].data, c[0].data) {
		t.Error("infer-batch round does not depend on the seed")
	}

	t1, err := buildTap(1, 2, enc)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := buildTap(1, 2, enc)
	if err != nil {
		t.Fatal(err)
	}
	t3, err := buildTap(2, 2, enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(t1.data, t2.data) || !reflect.DeepEqual(t1.sessions, t2.sessions) || !reflect.DeepEqual(t1.chunkTS, t2.chunkTS) {
		t.Error("tap differs between two runs with one seed")
	}
	if bytes.Equal(t1.data, t3.data) {
		t.Error("tap does not depend on the seed")
	}

	cfg := corpusConfig(1, 0, enc)
	cfg.N = 2
	dir := t.TempDir()
	m1, _, err := dataset.GenerateTo(cfg, filepath.Join(dir, "a"), true)
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := dataset.GenerateTo(cfg, filepath.Join(dir, "b"), true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m1, m2) {
		t.Error("corpus manifest differs between two runs with one seed")
	}
	r := newReport()
	if verifyCorpus(filepath.Join(dir, "a"), 2, "corpus", r); r.failed != 0 || r.attempted != 2 {
		t.Errorf("verifyCorpus: %d of %d failed: %v", r.failed, r.attempted, r.problems)
	}
	if err := os.WriteFile(filepath.Join(dir, "a", m1.Points[1].Pcap), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if verifyCorpus(filepath.Join(dir, "a"), 3, "corpus", r); r.failed != 2 {
		t.Errorf("verifyCorpus missed a corrupt and a missing point: %d failed", r.failed)
	}
}

func tinyTap(t *testing.T) (*tapInput, *attack.Attacker) {
	t.Helper()
	atks, _, err := trainAttackers([]profiles.Condition{profiles.Fig2Ubuntu}, nil)
	if err != nil {
		t.Fatal(err)
	}
	in, err := buildTap(3, 2, testEncoding(3))
	if err != nil {
		t.Fatal(err)
	}
	return in, atks[profiles.Fig2Ubuntu]
}

// TestFailureCounterCatchesWrongInference checks that a wrong decision
// vector or a missing finalization counts as a failed operation.
func TestFailureCounterCatchesWrongInference(t *testing.T) {
	r := newReport()
	inf := &attack.Inference{Decisions: []bool{true, false}}
	checkInference(r, "right", inf, nil, []bool{true, false})
	checkInference(r, "wrong", inf, nil, []bool{true, true})
	checkInference(r, "error", nil, errors.New("boom"), []bool{true})
	if r.attempted != 3 || r.failed != 2 {
		t.Errorf("checkInference: %d attempted, %d failed; want 3, 2", r.attempted, r.failed)
	}

	in, atk := tinyTap(t)
	res, err := in.pass(atk, 0, passOpts{})
	if err != nil {
		t.Fatal(err)
	}
	r = newReport()
	in.check(res, "tap", r)
	if r.failed != 0 || r.attempted != 2 {
		t.Fatalf("tap pass: %d of %d failed: %v", r.failed, r.attempted, r.problems)
	}
	in.sessions[1].truth = append([]bool(nil), in.sessions[1].truth...)
	in.sessions[1].truth[0] = !in.sessions[1].truth[0]
	in.check(res, "wrong truth", r)
	if r.failed != 1 {
		t.Errorf("a wrong decision vector was not counted: %d failed", r.failed)
	}
	var kept []tapEvent
	for _, e := range res.events {
		if _, ok := e.ev.(attack.SessionFinalized); !ok {
			kept = append(kept, e)
		}
	}
	res.events = kept
	in.check(res, "no finalization", r)
	if r.failed != 3 {
		t.Errorf("missing finalizations were not counted: %d failed, want 3", r.failed)
	}
}

// TestEventAtMapsToCarryingChunk checks that each event with an At maps
// to a chunk that carried a packet stamped At, and never to a chunk fed
// after the one during which the event fired.
func TestEventAtMapsToCarryingChunk(t *testing.T) {
	in, atk := tinyTap(t)
	res, err := in.pass(atk, 0, passOpts{})
	if err != nil {
		t.Fatal(err)
	}
	carried := make([]map[int64]bool, in.chunks())
	rd, err := pcapio.NewBytesReader(in.data)
	if err != nil {
		t.Fatal(err)
	}
	end := 24 // pcap file header
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		end += 16 + len(rec.Data)
		k := (end - 1) / tapChunk
		if carried[k] == nil {
			carried[k] = map[int64]bool{}
		}
		carried[k][rec.Timestamp.UnixNano()] = true
	}
	if end != len(in.data) {
		t.Fatalf("walked %d bytes of %d", end, len(in.data))
	}
	n := 0
	for _, e := range res.events {
		at, ok := eventAt(e.ev)
		if !ok {
			continue
		}
		n++
		k := in.chunkOf(at)
		if !carried[k][at.UnixNano()] {
			t.Errorf("%s: chunk %d carries no packet stamped %v", eventKey(e.ev), k, at)
		}
		if k > e.chunk {
			t.Errorf("%s: maps to chunk %d, fired while feeding chunk %d", eventKey(e.ev), k, e.chunk)
		}
	}
	if n == 0 {
		t.Fatal("no events with At")
	}
}

// TestLatencyFromTriggerChunk checks that an event is timed from the due
// time of the chunk during which the reference monitor emitted it.
func TestLatencyFromTriggerChunk(t *testing.T) {
	at := time.Unix(100, 0)
	in := &tapInput{data: make([]byte, 3*tapChunk), ref: []tapEvent{
		{ev: attack.FlowDetected{At: at}, chunk: 1},
		{ev: attack.SessionFinalized{}, chunk: 2},
		{ev: attack.FlowExpired{At: at, Reason: "close"}, chunk: 3},
	}}
	t0 := time.Now()
	res := &passResult{t0: t0, events: []tapEvent{
		{ev: in.ref[0].ev, at: t0.Add(chunkInterval + time.Millisecond)},
		{ev: in.ref[1].ev, at: t0.Add(5 * time.Millisecond)},
		{ev: in.ref[2].ev, at: t0.Add(2*chunkInterval + 3*time.Millisecond)},
	}}
	r := newReport()
	got := in.latencies(res, "pass", r)
	if want := []float64{1, 3}; !reflect.DeepEqual(got, want) || r.failed != 0 {
		t.Errorf("latencies %v (failed %d), want %v", got, r.failed, want)
	}
	if got := perEvent([][]float64{{1, 3}, {9, 4}, {2, 5}}); !reflect.DeepEqual(got, []float64{2, 4}) {
		t.Errorf("perEvent %v, want [2 4]", got)
	}
	res.events[0], res.events[2] = res.events[2], res.events[0]
	if got := in.latencies(res, "reordered", r); len(got) != 0 || r.failed != 1 {
		t.Errorf("a reordered event stream was timed: %v, %d failed", got, r.failed)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("median %v", q)
	}
	if q := quantile(xs, 0.25); q != 2 {
		t.Errorf("first quartile %v", q)
	}
	if q := quantile(xs, 1); q != 5 {
		t.Errorf("max %v", q)
	}
}

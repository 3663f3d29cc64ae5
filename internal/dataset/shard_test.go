package dataset

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"
)

// readTree returns name -> contents for every regular file in dir.
func readTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		buf, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = buf
	}
	return out
}

// TestShardEquivalence_Dataset pins the shard-equivalence invariant:
// splitting generation across 2, 4 or 8 processes and merging the shard
// directories yields a corpus byte-identical to the single-process run —
// pcaps, label sidecars, attributes.csv and the manifest itself. The
// reference runs one worker and the shards four, so the same comparison
// pins worker independence of the files the StreamN workers encode.
func TestShardEquivalence_Dataset(t *testing.T) {
	cfg := Config{N: 8, Seed: 21}
	refDir := t.TempDir()
	refCfg := cfg
	refCfg.Workers = 1
	if _, _, err := GenerateTo(refCfg, refDir, true); err != nil {
		t.Fatal(err)
	}
	ref := readTree(t, refDir)
	if len(ref) != 2*cfg.N+2 { // pcap+json per point, manifest, attributes.csv
		names := make([]string, 0, len(ref))
		for n := range ref {
			names = append(names, n)
		}
		sort.Strings(names)
		t.Fatalf("reference corpus has %d files: %v", len(ref), names)
	}

	for _, count := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", count), func(t *testing.T) {
			dirs := make([]string, count)
			for i := 0; i < count; i++ {
				dirs[i] = t.TempDir()
				shardCfg := cfg
				shardCfg.Workers = 4
				shardCfg.Shard = Shard{Index: i, Count: count}
				man, _, err := GenerateTo(shardCfg, dirs[i], true)
				if err != nil {
					t.Fatal(err)
				}
				if man.Shard != fmt.Sprintf("%d/%d", i, count) {
					t.Fatalf("shard manifest marker = %q", man.Shard)
				}
				for _, e := range man.Points {
					if e.Index%count != i {
						t.Fatalf("shard %d/%d produced point %d", i, count, e.Index)
					}
				}
			}
			out := t.TempDir()
			if _, err := MergeShards(out, true, dirs...); err != nil {
				t.Fatal(err)
			}
			got := readTree(t, out)
			if len(got) != len(ref) {
				t.Fatalf("merged corpus has %d files, reference %d", len(got), len(ref))
			}
			for name, want := range ref {
				if string(got[name]) != string(want) {
					t.Errorf("%s differs from the single-process corpus", name)
				}
			}
		})
	}
}

// TestMergeShardsRejectsGaps: a merge missing a shard must name the
// first uncovered point instead of silently writing a partial corpus.
func TestMergeShardsRejectsGaps(t *testing.T) {
	cfg := Config{N: 4, Seed: 5}
	shard0, shard1 := t.TempDir(), t.TempDir()
	c0 := cfg
	c0.Shard = Shard{Index: 0, Count: 2}
	if _, _, err := GenerateTo(c0, shard0, false); err != nil {
		t.Fatal(err)
	}
	c1 := cfg
	c1.Shard = Shard{Index: 1, Count: 2}
	if _, _, err := GenerateTo(c1, shard1, false); err != nil {
		t.Fatal(err)
	}
	if _, err := MergeShards(t.TempDir(), false, shard0); err == nil {
		t.Fatal("merge of half the shards succeeded")
	}
	// Mismatched seeds must be rejected too.
	other := t.TempDir()
	cOther := cfg
	cOther.Seed = 6
	cOther.Shard = Shard{Index: 1, Count: 2}
	if _, _, err := GenerateTo(cOther, other, false); err != nil {
		t.Fatal(err)
	}
	if _, err := MergeShards(t.TempDir(), false, shard0, other); err == nil {
		t.Fatal("merge across different seeds succeeded")
	}
	// The well-formed merge still works.
	if _, err := MergeShards(t.TempDir(), false, shard0, shard1); err != nil {
		t.Fatal(err)
	}
}

// TestShardSpecRoundTrip covers the CLI spelling.
func TestShardSpecRoundTrip(t *testing.T) {
	s, err := ParseShard("2/4")
	if err != nil {
		t.Fatal(err)
	}
	if s != (Shard{Index: 2, Count: 4}) || s.String() != "2/4" {
		t.Fatalf("parsed %+v (%q)", s, s.String())
	}
	for _, bad := range []string{"", "3", "4/4", "-1/4", "a/b", "0/0"} {
		if _, err := ParseShard(bad); err == nil {
			t.Errorf("ParseShard(%q) succeeded", bad)
		}
	}
}

// TestGenerateConstantMemory pins the streaming path's memory bound:
// generating a 1,000-point lean corpus holds resident heap flat — a
// bounded window of in-flight traces, never O(N) retention. Checkpoints
// sample HeapAlloc after a forced GC every 100 points; later checkpoints
// may not grow materially over the warmed-up baseline.
func TestGenerateConstantMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("soak-style memory regression; skipped in -short")
	}
	const (
		n     = 1000
		every = 100
	)
	var samples []uint64
	count := 0
	err := Stream(Config{N: n, Seed: 3, Lean: true}, func(p Point) error {
		p.Trace.Release()
		count++
		if count%every == 0 {
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			samples = append(samples, ms.HeapAlloc)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("streamed %d of %d points", count, n)
	}
	// Baseline after two checkpoints: caches (encoding, profiles) are
	// warm. Allow 50% growth plus fixed slack before calling it a leak —
	// O(N) retention would blow through this by orders of magnitude.
	base := samples[1]
	limit := base + base/2 + 8<<20
	for i, s := range samples[2:] {
		if s > limit {
			t.Fatalf("heap grew with corpus size: checkpoint %d retains %d bytes (baseline %d, limit %d)",
				i+2, s, base, limit)
		}
	}
	t.Logf("heap checkpoints (bytes): first=%d base=%d last=%d", samples[0], base, samples[len(samples)-1])
}

// TestGenerateToConstantMemory is the persisted path's sibling of
// TestGenerateConstantMemory: GenerateTo with full payloads at two
// workers, where the in-flight window holds encoded captures rather than
// lean traces. A sampler watches the corpus grow on disk and, every few
// points written, samples HeapAlloc after a forced GC.
func TestGenerateToConstantMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("soak-style memory regression; skipped in -short")
	}
	const (
		n     = 48
		every = 4
	)
	cfg := Config{N: n, Seed: 3, Workers: 2}.withDefaults() // warm the encoding cache
	dir := t.TempDir()
	// Two GCs: the second frees buffers earlier tests left in the
	// sync.Pool victim caches, so the baseline is this test's own.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc

	stop := make(chan struct{})
	sampled := make(chan []uint64)
	go func() {
		var samples []uint64
		next := every
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				sampled <- samples
				return
			case <-tick.C:
			}
			pcaps, _ := filepath.Glob(filepath.Join(dir, "*.pcap"))
			if len(pcaps) < next {
				continue
			}
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			samples = append(samples, ms.HeapAlloc)
			next = len(pcaps) + every
		}
	}()
	man, _, err := GenerateTo(cfg, dir, true)
	close(stop)
	samples := <-sampled
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Points) != n {
		t.Fatalf("wrote %d of %d points", len(man.Points), n)
	}
	if len(samples) < 4 {
		t.Fatalf("only %d heap checkpoints sampled over %d points", len(samples), n)
	}
	// The bound is the in-flight window, not the corpus: StreamN holds at
	// most 2×workers points between claim and emit, each with up to a few
	// captures' worth of buffers (stream writers, frame arena, capture),
	// and the writer pool keeps recycled buffers across one GC. Sixteen of
	// the largest captures covers that with room; retaining every point's
	// capture or trace (~11 MiB apiece) passes it well before point 48.
	var biggest uint64
	for _, e := range man.Points {
		biggest = max(biggest, uint64(e.PcapBytes))
	}
	limit := base + 16*biggest
	for i, s := range samples {
		if s > limit {
			t.Fatalf("heap grew with corpus size: checkpoint %d retains %d MiB (before the run %d MiB, limit %d MiB)",
				i, s>>20, base>>20, limit>>20)
		}
	}
	t.Logf("heap checkpoints (bytes): before=%d max=%d last=%d limit=%d", base, slices.Max(samples), samples[len(samples)-1], limit)
}

package baseline

import (
	"testing"
	"time"

	"repro/internal/media"
	"repro/internal/profiles"
	"repro/internal/script"
	"repro/internal/session"
	"repro/internal/viewer"
	"repro/internal/wire"
)

// sampleAt builds a synthetic Sample with the given record sizes spaced
// by the given gaps.
func sampleAt(label string, sizes []int, gaps []time.Duration) Sample {
	s := Sample{Label: label}
	t := time.Unix(1000, 0)
	for i, size := range sizes {
		s.Times = append(s.Times, t)
		s.Lengths = append(s.Lengths, size)
		if i < len(gaps) {
			t = t.Add(gaps[i])
		} else {
			t = t.Add(10 * time.Millisecond)
		}
	}
	return s
}

func TestBitrateFingerprintWindows(t *testing.T) {
	// 1 MB at t=0s and 1 MB at t=15s: two windows.
	s := sampleAt("x", []int{1_000_000, 1_000_000}, []time.Duration{15 * time.Second})
	fp := BitrateFingerprintOf(s)
	if len(fp) != 2 {
		t.Fatalf("fingerprint windows = %d, want 2", len(fp))
	}
	if fp[0] != 800_000 || fp[1] != 800_000 {
		t.Errorf("fingerprint = %v, want [800000 800000]", fp)
	}
}

func TestBitrateFingerprintEmpty(t *testing.T) {
	if fp := BitrateFingerprintOf(Sample{}); fp != nil {
		t.Errorf("empty fingerprint = %v", fp)
	}
}

func TestBitrateDistanceIdentityAndScale(t *testing.T) {
	a := BitrateFingerprint{1e6, 2e6, 3e6}
	if d := a.Distance(a); d != 0 {
		t.Errorf("self-distance = %v", d)
	}
	b := BitrateFingerprint{2e6, 4e6, 6e6} // double everything
	if d := a.Distance(b); d < 0.5 {
		t.Errorf("2x-scaled distance = %v, want ~log(2)", d)
	}
}

func TestBitrateClassifierSeparatesTitles(t *testing.T) {
	// Two "titles" at clearly different bitrates.
	low := sampleAt("low", repeatInt(100_000, 30), nil)
	high := sampleAt("high", repeatInt(900_000, 30), nil)
	c, err := NewBitrateClassifier([]Sample{low, high})
	if err != nil {
		t.Fatal(err)
	}
	probe := sampleAt("?", repeatInt(110_000, 30), nil)
	if got := c.Classify(probe); got != "low" {
		t.Errorf("Classify = %q, want low", got)
	}
	probe2 := sampleAt("?", repeatInt(850_000, 30), nil)
	if got := c.Classify(probe2); got != "high" {
		t.Errorf("Classify = %q, want high", got)
	}
}

func TestBitrateClassifierNeedsRefs(t *testing.T) {
	if _, err := NewBitrateClassifier(nil); err == nil {
		t.Error("empty reference set accepted")
	}
}

func TestBurstsSplitOnGap(t *testing.T) {
	s := sampleAt("x", []int{100, 200, 300},
		[]time.Duration{10 * time.Millisecond, time.Second})
	bursts := Bursts(s)
	if len(bursts) != 2 {
		t.Fatalf("bursts = %v", bursts)
	}
	if bursts[0] != 300 || bursts[1] != 300 {
		t.Errorf("bursts = %v, want [300 300]", bursts)
	}
}

func TestBurstClassifierMajorityVote(t *testing.T) {
	mk := func(label string, unit int) Sample {
		var sizes []int
		var gaps []time.Duration
		for i := 0; i < 10; i++ {
			sizes = append(sizes, unit)
			gaps = append(gaps, time.Second)
		}
		return Sample{Label: label, Times: timesFrom(gaps), Lengths: sizes}
	}
	refs := []Sample{mk("a", 1000), mk("a", 1100), mk("b", 50_000), mk("b", 52_000)}
	c, err := NewBurstClassifier(refs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Classify(mk("?", 1050)); got != "a" {
		t.Errorf("Classify = %q, want a", got)
	}
	if got := c.Classify(mk("?", 51_000)); got != "b" {
		t.Errorf("Classify = %q, want b", got)
	}
}

func timesFrom(gaps []time.Duration) []time.Time {
	t := time.Unix(1000, 0)
	out := []time.Time{t}
	for _, g := range gaps[:len(gaps)-1] {
		t = t.Add(g)
		out = append(out, t)
	}
	return out
}

func TestADUsReconstruction(t *testing.T) {
	s := sampleAt("x", []int{1000, 2000, 3000, 4000},
		[]time.Duration{time.Millisecond, 200 * time.Millisecond, time.Millisecond})
	adus := ADUs(s)
	if len(adus) != 2 {
		t.Fatalf("ADUs = %+v", adus)
	}
	if adus[0].Bytes != 3000 || adus[1].Bytes != 7000 {
		t.Errorf("ADU bytes = %d, %d", adus[0].Bytes, adus[1].Bytes)
	}
}

func TestIsVideoStreamOnRealTrace(t *testing.T) {
	g := script.Bandersnatch()
	enc := media.Encode(g, media.DefaultLadder, 42)
	pop := viewer.SamplePopulation(1, wire.NewRNG(21))
	tr, err := session.Run(session.Config{
		Graph: g, Encoding: enc, Viewer: pop[0],
		Condition: profiles.Fig2Ubuntu, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := FromServerRecords(tr.ServerRecords, "bandersnatch")
	isVideo, large := IsVideoStream(s)
	if !isVideo {
		t.Errorf("video session not recognized as video (%d large ADUs)", large)
	}
	if s.Duration() <= 0 {
		t.Error("sample duration not positive")
	}
}

func TestIsVideoStreamRejectsSmallTransfer(t *testing.T) {
	s := sampleAt("web", repeatInt(2000, 20), nil)
	if isVideo, _ := IsVideoStream(s); isVideo {
		t.Error("small transfer classified as video")
	}
}

// TestIntraTitleSegmentsConfusable reproduces the paper's §II argument:
// bitrate fingerprints of two same-title segments at the same quality are
// too close to separate, while two different synthetic titles separate
// cleanly.
func TestIntraTitleSegmentsConfusable(t *testing.T) {
	g := script.Bandersnatch()
	enc := media.Encode(g, media.DefaultLadder, 42)
	mkSample := func(id script.SegmentID) Sample {
		chunks, err := enc.Chunks(id, 2)
		if err != nil {
			t.Fatal(err)
		}
		s := Sample{Label: string(id)}
		at := time.Unix(1000, 0)
		for _, c := range chunks {
			s.Times = append(s.Times, at)
			s.Lengths = append(s.Lengths, c.Size)
			at = at.Add(c.Duration)
		}
		return s
	}
	s1 := mkSample("S1")   // default breakfast branch
	s1b := mkSample("S1b") // alternative breakfast branch
	d := BitrateFingerprintOf(s1).Distance(BitrateFingerprintOf(s1b))
	// Same title, same ladder: distance must be small (splits are within
	// VBR noise). A different title at a different rung separates by an
	// order of magnitude more.
	other := mkSample("S1")
	for i := range other.Lengths {
		other.Lengths[i] *= 8 // a different title at a much higher rate
	}
	dOther := BitrateFingerprintOf(s1).Distance(BitrateFingerprintOf(other))
	if d*4 > dOther {
		t.Errorf("intra-title distance %v vs inter-title %v: branches too separable", d, dOther)
	}
}

func repeatInt(v, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}

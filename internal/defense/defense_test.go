package defense

import (
	"testing"
	"time"

	"repro/internal/tlsrec"
)

func mkClientRecs(times ...int64) []tlsrec.Record {
	var out []tlsrec.Record
	for _, s := range times {
		out = append(out, tlsrec.Record{
			Type: tlsrec.ContentApplicationData,
			Time: time.Unix(s, 0), Length: 1000,
		})
	}
	return out
}

func TestDetectEventsQuietRule(t *testing.T) {
	a := &TimingAttack{QuietBefore: 3 * time.Second}
	// Requests every second, then a 9s pause before a report.
	client := mkClientRecs(0, 1, 2, 3, 12, 13, 14)
	events := a.DetectEvents(client, nil)
	if len(events) != 1 {
		t.Fatalf("events = %+v", events)
	}
	if events[0].At.Unix() != 12 {
		t.Errorf("event at %v", events[0].At)
	}
}

func TestDetectEventsCoalesces(t *testing.T) {
	a := &TimingAttack{QuietBefore: 3 * time.Second}
	// A type-1 at t=10 and its type-2 at t=14 are one choice point.
	client := mkClientRecs(0, 1, 10, 14, 15, 16)
	events := a.DetectEvents(client, nil)
	if len(events) != 1 {
		t.Fatalf("events = %+v, want coalesced single event", events)
	}
}

func TestDownlinkGapMeasurement(t *testing.T) {
	a := &TimingAttack{QuietBefore: 3 * time.Second}
	client := mkClientRecs(0, 10)
	server := []tlsrec.Record{
		{Type: tlsrec.ContentApplicationData, Time: time.Unix(10, 0)},
		{Type: tlsrec.ContentApplicationData, Time: time.Unix(17, 0)}, // 7s gap
		{Type: tlsrec.ContentApplicationData, Time: time.Unix(18, 0)},
	}
	events := a.DetectEvents(client, server)
	if len(events) != 1 {
		t.Fatalf("events = %+v", events)
	}
	if events[0].DownlinkGap != 7*time.Second {
		t.Errorf("gap = %v, want 7s", events[0].DownlinkGap)
	}
}

func TestCalibrateAndClassifyByGap(t *testing.T) {
	a := &TimingAttack{Feature: FeatureGap}
	split := a.Calibrate(
		[]time.Duration{time.Second, 2 * time.Second},
		[]time.Duration{8 * time.Second, 10 * time.Second},
	)
	if split <= 2*time.Second || split >= 8*time.Second {
		t.Errorf("split = %v", split)
	}
	got := a.ClassifyEvents([]TimingEvent{
		{DownlinkGap: time.Second},
		{DownlinkGap: 9 * time.Second},
	})
	if !got[0] || got[1] {
		t.Errorf("classified = %v, want [true false]", got)
	}
}

func TestCalibrateAndClassifyByVolume(t *testing.T) {
	a := &TimingAttack{Feature: FeatureVolume}
	split := a.CalibrateVolume([]int{1_000_000, 1_200_000}, []int{2_400_000, 2_600_000})
	if split <= 1_200_000 || split >= 2_400_000 {
		t.Errorf("split = %d", split)
	}
	got := a.ClassifyEvents([]TimingEvent{
		{DownlinkBytes: 900_000},
		{DownlinkBytes: 2_500_000},
	})
	if !got[0] || got[1] {
		t.Errorf("classified = %v, want [true false]", got)
	}
}

func TestClassifyByPairs(t *testing.T) {
	a := &TimingAttack{} // FeaturePairs is the default
	// One pair is the question's own burst (default choice); two mark a
	// decision pair on top of it (non-default).
	got := a.ClassifyEvents([]TimingEvent{
		{PairCount: 1},
		{PairCount: 2},
	})
	if !got[0] || got[1] {
		t.Errorf("classified = %v, want [true false]", got)
	}
}

func TestClassifyUncalibratedFallsBackToDefault(t *testing.T) {
	a := &TimingAttack{Feature: FeatureGap}
	got := a.ClassifyEvents([]TimingEvent{{DownlinkGap: time.Hour}})
	if !got[0] {
		t.Error("uncalibrated gap attack should fall back to all-default")
	}
}

func TestPairCountDetection(t *testing.T) {
	a := &TimingAttack{QuietBefore: 3 * time.Second}
	// Event at t=10 (after 10s quiet): the question's report + prefetch
	// request 5ms apart are pair one; the type-2 + refetch at t=15 are
	// pair two; two merely-close records 20ms apart (telemetry drifting
	// over a chunk request) must not count.
	mk := func(sec int64, ns int64) tlsrec.Record {
		return tlsrec.Record{Type: tlsrec.ContentApplicationData,
			Time: time.Unix(sec, ns), Length: 1000}
	}
	client := []tlsrec.Record{
		mk(0, 0),
		mk(10, 0), mk(10, 5e6), // question: report + same-instant prefetch request
		mk(13, 0),              // prefetch request during deliberation
		mk(15, 0), mk(15, 5e6), // decision pair
		mk(17, 0), mk(17, 20e6), // close but not a pair
	}
	events := a.DetectEvents(client, nil)
	if len(events) != 1 {
		t.Fatalf("events = %+v", events)
	}
	if events[0].PairCount != 2 {
		t.Errorf("PairCount = %d, want 2 (question burst + decision pair)", events[0].PairCount)
	}
}

func TestMatchEventsAlignment(t *testing.T) {
	events := []TimingEvent{
		{At: time.Unix(10, 0)},
		{At: time.Unix(50, 0)},
		{At: time.Unix(90, 0)},
	}
	truth := []time.Time{time.Unix(11, 0), time.Unix(52, 0), time.Unix(200, 0)}
	m := MatchEvents(events, truth, 6*time.Second)
	if m[0] != 0 || m[1] != 1 || m[2] != -1 {
		t.Errorf("matches = %v, want [0 1 -1]", m)
	}
}

func TestMatchEventsNoDoubleUse(t *testing.T) {
	events := []TimingEvent{{At: time.Unix(10, 0)}}
	truth := []time.Time{time.Unix(9, 0), time.Unix(11, 0)}
	m := MatchEvents(events, truth, 6*time.Second)
	used := 0
	for _, j := range m {
		if j == 0 {
			used++
		}
	}
	if used != 1 {
		t.Errorf("event matched %d truth entries, want 1", used)
	}
}

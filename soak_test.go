package whitemirror

import (
	"reflect"
	"testing"

	"repro/internal/experiments"
)

// TestMonitorSoakBoundedMemory is the long-lived-observer contract, run
// as the CI soak smoke: 20 consecutive interactive sessions, each
// interleaved with noise flows, stream back-to-back through ONE
// rolling-window monitor, frame by frame. Every session must
// decode byte-identically to the per-capture one-shot InferPcap baseline,
// and the monitor's retained memory must stay O(window) — flat in the
// session count — rather than O(sessions).
func TestMonitorSoakBoundedMemory(t *testing.T) {
	sessions := 20
	if testing.Short() {
		sessions = 6
	}
	res, err := experiments.Soak(sessions, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.Report)

	if res.Finalized < sessions {
		t.Errorf("SessionFinalized fired %d times, want >= %d (one per interactive session)",
			res.Finalized, sessions)
	}
	if res.Decoded != sessions {
		t.Errorf("windowed decode byte-identical to one-shot baseline for %d/%d sessions",
			res.Decoded, sessions)
	}

	// Memory flatness, deterministic accounting: the retained figure after
	// the last sessions must not grow with N. Unbounded retention (the
	// pre-window monitor kept every flow's chunks until Close) makes this
	// climb by megabytes per session.
	early, late := int64(0), int64(0)
	for _, v := range res.RetainedBySession[:3] {
		if v > early {
			early = v
		}
	}
	for _, v := range res.RetainedBySession[len(res.RetainedBySession)-3:] {
		if v > late {
			late = v
		}
	}
	if late > 2*early+(256<<10) {
		t.Errorf("retained bytes grew with session count: early max %d, late max %d", early, late)
	}

	// Heap flatness, end to end (with slack for runtime noise): a monitor
	// that retains per-session state makes the tail strictly climb.
	hEarly, hLate := uint64(0), uint64(0)
	for _, v := range res.HeapBySession[:3] {
		if v > hEarly {
			hEarly = v
		}
	}
	for _, v := range res.HeapBySession[len(res.HeapBySession)-3:] {
		if v > hLate {
			hLate = v
		}
	}
	if hLate > 2*hEarly+(32<<20) {
		t.Errorf("heap grew with session count: early max %d, late max %d", hEarly, hLate)
	}
}

// TestMonitorSoakDeterministic is determinism at soak scale: the same
// 20-session continuous tap streamed twice through a fresh rolling-window
// monitor must give the byte-identical event stream, and every session
// must decode byte-identically to its one-shot baseline both times.
func TestMonitorSoakDeterministic(t *testing.T) {
	sessions := 20
	if testing.Short() {
		sessions = 6
	}
	want, err := experiments.Soak(sessions, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	res, err := experiments.Soak(sessions, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*experiments.SoakResult{want, res} {
		if r.Decoded != sessions {
			t.Errorf("windowed decode byte-identical to one-shot baseline for %d/%d sessions",
				r.Decoded, sessions)
		}
	}
	if len(res.Events) != len(want.Events) {
		t.Fatalf("second soak emitted %d events, first %d", len(res.Events), len(want.Events))
	}
	for i := range want.Events {
		if !reflect.DeepEqual(res.Events[i], want.Events[i]) {
			t.Fatalf("second soak event %d = %#v, want %#v (streams diverged)",
				i, res.Events[i], want.Events[i])
		}
	}
}

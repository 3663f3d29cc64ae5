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

// TestMonitorSoakSharded runs the same continuous-tap soak on the
// sharded engine and holds it to two extra bars: the full event stream
// must be byte-identical to the single-threaded soak's (determinism
// survives the fan-out even across a 20-session tap), and EVERY shard's
// retained footprint must stay flat in the session count — a shard that
// accumulates what its siblings release would hide behind a flat
// aggregate.
func TestMonitorSoakSharded(t *testing.T) {
	sessions := 20
	if testing.Short() {
		sessions = 6
	}
	const shards = 4
	want, err := experiments.Soak(sessions, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	res, err := experiments.SoakSharded(sessions, 2, 11, shards)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.Report)

	if res.Decoded != sessions {
		t.Errorf("sharded windowed decode byte-identical to one-shot baseline for %d/%d sessions",
			res.Decoded, sessions)
	}
	if len(res.Events) != len(want.Events) {
		t.Fatalf("sharded soak emitted %d events, single-threaded %d", len(res.Events), len(want.Events))
	}
	for i := range want.Events {
		if !reflect.DeepEqual(res.Events[i], want.Events[i]) {
			t.Fatalf("sharded soak event %d = %#v, want %#v (streams diverged)",
				i, res.Events[i], want.Events[i])
		}
	}

	// Per-shard flatness: each shard's retained series must not climb
	// with the session count, with slack for which shard happens to own
	// the live conversation at each sample point.
	if len(res.ShardRetainedBySession) != sessions {
		t.Fatalf("per-shard samples: %d, want %d", len(res.ShardRetainedBySession), sessions)
	}
	for sh := 0; sh < shards; sh++ {
		early, late := int64(0), int64(0)
		for _, row := range res.ShardRetainedBySession[:3] {
			if row[sh] > early {
				early = row[sh]
			}
		}
		for _, row := range res.ShardRetainedBySession[sessions-3:] {
			if row[sh] > late {
				late = row[sh]
			}
		}
		// A shard's sample can legitimately be near zero early and hold
		// one live session late (or vice versa), so the bound is against
		// the cross-shard early peak, not the same shard's.
		var earlyPeak int64
		for _, row := range res.ShardRetainedBySession[:3] {
			for _, v := range row {
				if v > earlyPeak {
					earlyPeak = v
				}
			}
		}
		if late > 2*earlyPeak+(256<<10) {
			t.Errorf("shard %d retained bytes grew with session count: early max %d (cross-shard peak %d), late max %d",
				sh, early, earlyPeak, late)
		}
	}
}

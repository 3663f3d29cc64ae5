package attack

import (
	"math/rand"
	"testing"
	"time"
)

func twAt(epoch time.Time, s float64) time.Time {
	return epoch.Add(time.Duration(s * float64(time.Second)))
}

// TestTimeWheelBucketRotation walks the clock tick by tick past a spread
// of deadlines and checks each entry pops on the first advance whose
// clock tick covers its deadline — no earlier pop beyond tick
// granularity, no missed entry.
func TestTimeWheelBucketRotation(t *testing.T) {
	epoch := time.Unix(1700000000, 0)
	w := newTimeWheel(epoch, 64*time.Second) // tick = 1s
	if w.tick != time.Second {
		t.Fatalf("tick = %v, want 1s", w.tick)
	}

	deadlines := []float64{1.2, 2.9, 3.0, 7.5, 40, 63.9, 64.1, 200}
	for i, s := range deadlines {
		w.schedule(&twEntry{deadline: twAt(epoch, s), ord: uint64(i)})
	}
	if w.size != len(deadlines) {
		t.Fatalf("size = %d, want %d", w.size, len(deadlines))
	}

	seen := map[uint64]float64{}
	for sec := 1; sec <= 210; sec++ {
		now := twAt(epoch, float64(sec))
		for _, e := range w.advance(now) {
			if _, dup := seen[e.ord]; dup {
				t.Fatalf("entry %d popped twice", e.ord)
			}
			seen[e.ord] = float64(sec)
			// An entry may pop up to one tick before its deadline (tick
			// granularity) and must pop no later than the first advance
			// past it.
			s := deadlines[e.ord]
			if float64(sec) < s-1 {
				t.Errorf("entry %d (deadline %gs) popped early at %ds", e.ord, s, sec)
			}
			if float64(sec) > s+1 {
				t.Errorf("entry %d (deadline %gs) popped late at %ds", e.ord, s, sec)
			}
		}
	}
	if len(seen) != len(deadlines) {
		t.Fatalf("popped %d entries, want %d", len(seen), len(deadlines))
	}
	if w.size != 0 {
		t.Fatalf("size = %d after draining, want 0", w.size)
	}
}

// TestTimeWheelClockJump jumps the clock far beyond one level-0
// revolution (and beyond a level-1 revolution) in a single advance; every
// scheduled entry must pop exactly once, and entries beyond the jump must
// stay scheduled.
func TestTimeWheelClockJump(t *testing.T) {
	epoch := time.Unix(1700000000, 0)
	w := newTimeWheel(epoch, 64*time.Second)

	// Deadlines spanning level 0 (<64s), level 1 (<4096s), level 2, and
	// one past the jump target.
	due := []float64{0.5, 10, 63, 64, 500, 4095, 4097, 9000}
	w.schedule(&twEntry{deadline: twAt(epoch, 99999), ord: 1000})
	for i, s := range due {
		w.schedule(&twEntry{deadline: twAt(epoch, s), ord: uint64(i)})
	}

	got := w.advance(twAt(epoch, 10000)) // one jump across two revolutions
	if len(got) != len(due) {
		t.Fatalf("jump popped %d entries, want %d", len(got), len(due))
	}
	for i, e := range got {
		if e.ord != uint64(i) {
			t.Errorf("pop %d has ord %d, want %d (ord-sorted)", i, e.ord, i)
		}
	}
	if w.size != 1 {
		t.Fatalf("size = %d after jump, want 1 (the 99999s entry)", w.size)
	}
	if late := w.advance(twAt(epoch, 100001)); len(late) != 1 || late[0].ord != 1000 {
		t.Fatalf("far entry pop = %v, want the single ord-1000 entry", late)
	}
}

// TestTimeWheelReArm models a flow seeing traffic after its entry was
// scheduled: on pop, the caller re-schedules at the refreshed deadline
// instead of expiring. The entry must keep popping (and re-arming) until
// the refreshed deadline actually passes.
func TestTimeWheelReArm(t *testing.T) {
	epoch := time.Unix(1700000000, 0)
	w := newTimeWheel(epoch, 64*time.Second)

	e := &twEntry{deadline: twAt(epoch, 5), ord: 1}
	w.schedule(e)

	// Traffic at t=5 pushes the real deadline to t=69; the stale entry
	// pops at its old slot and gets re-armed.
	pops := 0
	expired := false
	for sec := 1; sec <= 80 && !expired; sec++ {
		for _, p := range w.advance(twAt(epoch, float64(sec))) {
			pops++
			refreshed := twAt(epoch, 69)
			if refreshed.After(twAt(epoch, float64(sec))) {
				p.deadline = refreshed
				w.schedule(p)
			} else {
				expired = true
			}
		}
	}
	if !expired {
		t.Fatal("re-armed entry never expired")
	}
	if pops < 2 {
		t.Fatalf("entry popped %d times, want >= 2 (stale pop + final expiry)", pops)
	}
	if w.size != 0 {
		t.Fatalf("size = %d, want 0", w.size)
	}
}

// TestTimeWheelIdenticalDeadlineOrder pins expiry-order determinism:
// entries sharing one deadline pop in ord order regardless of insertion
// order, so a sweep expires equal-deadline flows in first-seen order.
func TestTimeWheelIdenticalDeadlineOrder(t *testing.T) {
	epoch := time.Unix(1700000000, 0)
	deadline := twAt(epoch, 30)
	for trial := 0; trial < 8; trial++ {
		w := newTimeWheel(epoch, 64*time.Second)
		ords := rand.New(rand.NewSource(int64(trial))).Perm(50)
		for _, o := range ords {
			w.schedule(&twEntry{deadline: deadline, ord: uint64(o)})
		}
		got := w.advance(twAt(epoch, 31))
		if len(got) != 50 {
			t.Fatalf("trial %d: popped %d, want 50", trial, len(got))
		}
		for i, e := range got {
			if e.ord != uint64(i) {
				t.Fatalf("trial %d: pop %d has ord %d, want %d", trial, i, e.ord, i)
			}
		}
	}
}

// TestTimeWheelHorizonClamp schedules a deadline beyond the wheel's
// representable range; the clamp must keep it poppable (via cascade
// re-schedule) rather than parking it a full revolution away.
func TestTimeWheelHorizonClamp(t *testing.T) {
	epoch := time.Unix(1700000000, 0)
	w := newTimeWheel(epoch, 64*time.Second)
	horizon := float64(levelSpan(twLevels)) // in ticks = seconds here
	w.schedule(&twEntry{deadline: twAt(epoch, horizon*3), ord: 7})

	if got := w.advance(twAt(epoch, horizon*2)); len(got) != 0 {
		t.Fatalf("entry popped %v before its deadline", got)
	}
	if got := w.advance(twAt(epoch, horizon*3+1)); len(got) != 1 || got[0].ord != 7 {
		t.Fatalf("clamped entry pop = %v, want ord 7", got)
	}
}

package attack

import (
	"testing"
	"time"
)

var b0 = time.Unix(1735689600, 0)

// feedAll runs a (ts, size) sequence through a segmenter and returns every
// closed burst including the final flush.
func feedAll(s *BurstSegmenter, dgs [][2]int64) []Burst {
	var out []Burst
	for _, d := range dgs {
		if b, ok := s.Feed(b0.Add(time.Duration(d[0])*time.Microsecond), int(d[1])); ok {
			out = append(out, b)
		}
	}
	if b, ok := s.Flush(); ok {
		out = append(out, b)
	}
	return out
}

func TestBurstCoalescedDatagrams(t *testing.T) {
	// A 2-datagram write (type-1 over QUIC) followed 400ms later by a
	// 3-datagram write (type-2) must yield exactly two bursts with exact
	// byte totals, regardless of the sub-millisecond spacing inside each.
	var s BurstSegmenter
	bursts := feedAll(&s, [][2]int64{
		{0, 1350}, {500, 892},
		{400_000, 1350}, {400_500, 1350}, {401_000, 361},
	})
	if len(bursts) != 2 {
		t.Fatalf("bursts = %d, want 2", len(bursts))
	}
	if bursts[0].Bytes != 2242 || bursts[0].Datagrams != 2 {
		t.Errorf("burst 0 = %+v, want 2242 bytes / 2 datagrams", bursts[0])
	}
	if bursts[1].Bytes != 3061 || bursts[1].Datagrams != 3 {
		t.Errorf("burst 1 = %+v, want 3061 bytes / 3 datagrams", bursts[1])
	}
}

func TestBurstAckOnlyDatagrams(t *testing.T) {
	// Acks (~50 bytes) interleaved mid-burst must not contribute bytes,
	// must not split the burst, and must not extend its life; but an ack
	// arriving after a long silence must close the open burst.
	var s BurstSegmenter
	bursts := feedAll(&s, [][2]int64{
		{0, 1350}, {300, 50}, {600, 892}, // ack inside the write
		{100_000, 47}, // late lone ack: closes the burst, joins nothing
	})
	if len(bursts) != 1 {
		t.Fatalf("bursts = %d, want 1", len(bursts))
	}
	if bursts[0].Bytes != 2242 || bursts[0].Datagrams != 2 {
		t.Errorf("burst = %+v, want 2242 bytes / 2 datagrams (acks transparent)", bursts[0])
	}

	// A stream of only acks yields no bursts at all.
	var s2 BurstSegmenter
	if got := feedAll(&s2, [][2]int64{{0, 50}, {1000, 50}, {200_000, 50}}); len(got) != 0 {
		t.Errorf("ack-only stream produced %d bursts", len(got))
	}
}

func TestBurstGapStraddlesDeliberationWindow(t *testing.T) {
	// Two report writes separated by a deliberation pause barely above
	// the gap threshold must stay two bursts; the same writes squeezed
	// just inside the threshold merge into one. This pins the boundary
	// semantics: the gap is exclusive (spacing == DefaultBurstGap keeps a
	// burst open).
	gap := DefaultBurstGap
	s := &BurstSegmenter{}
	above := feedAll(s, [][2]int64{
		{0, 2242},
		{int64(gap/time.Microsecond) + 1, 3061},
	})
	if len(above) != 2 {
		t.Fatalf("spacing just above gap: bursts = %d, want 2", len(above))
	}
	if above[0].Bytes != 2242 || above[1].Bytes != 3061 {
		t.Errorf("bursts = %+v", above)
	}

	s2 := &BurstSegmenter{}
	at := feedAll(s2, [][2]int64{
		{0, 2242},
		{int64(gap / time.Microsecond), 3061},
	})
	if len(at) != 1 || at[0].Bytes != 5303 {
		t.Fatalf("spacing exactly at gap: %+v, want one merged burst of 5303", at)
	}
}

func TestBurstOutOfOrderDelivery(t *testing.T) {
	// UDP reorders: the second datagram of a write can arrive first. The
	// burst must absorb the straggler — same totals, span extended
	// backward — rather than treat the negative gap as a new burst.
	var s BurstSegmenter
	bursts := feedAll(&s, [][2]int64{
		{1000, 1350}, {500, 892}, {1500, 1350},
	})
	if len(bursts) != 1 {
		t.Fatalf("bursts = %d, want 1", len(bursts))
	}
	b := bursts[0]
	if b.Bytes != 3592 || b.Datagrams != 3 {
		t.Errorf("burst = %+v, want 3592 bytes / 3 datagrams", b)
	}
	if got := b.End.Sub(b.Start); got != time.Microsecond*1000 {
		t.Errorf("span = %v, want 1ms (start pulled back to the straggler)", got)
	}
}

func TestBurstFlushAndReuse(t *testing.T) {
	var s BurstSegmenter
	if _, ok := s.Flush(); ok {
		t.Fatal("flush of an empty segmenter returned a burst")
	}
	s.Feed(b0, 1350)
	b, ok := s.Flush()
	if !ok || b.Bytes != 1350 {
		t.Fatalf("flush = %+v, %v", b, ok)
	}
	// The segmenter must be reusable after a flush.
	s.Feed(b0.Add(time.Hour), 500)
	if b, ok := s.Flush(); !ok || b.Bytes != 500 {
		t.Fatalf("post-flush burst = %+v, %v", b, ok)
	}
}

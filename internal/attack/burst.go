// QUIC removed the attack's unit of observation: TLS record boundaries
// are invisible inside 1-RTT packets, so record lengths cannot be parsed
// off the wire. What survives is the burst — an application write flushed
// as a run of datagrams closely spaced in time. A type-1 report still
// produces a characteristic number of wire bytes; they just arrive as two
// ~1350-byte datagrams instead of one 2212-byte record. Grouping
// datagrams by inter-arrival gap and summing their sizes recovers a
// length feature the existing interval-band machinery trains on
// unchanged (Dubin et al.; Bahramali et al.).

package attack

import "time"

// Burst segmentation defaults. The gap threshold sits far above the
// synthesizer's intra-write datagram spacing (hundreds of microseconds)
// and far below the inter-write spacing of player behaviour (hundreds of
// milliseconds), so one application write maps to exactly one burst. The
// floor excludes ack-only datagrams (~50 bytes), which interleave with
// data in both directions and otherwise smear burst totals.
const (
	// DefaultBurstGap closes a burst when the next contributing datagram
	// arrives this much after the previous one.
	DefaultBurstGap = 25 * time.Millisecond
	// DefaultBurstMinBytes is the smallest datagram that contributes to a
	// burst; smaller datagrams (acks, keepalives) are transparent.
	DefaultBurstMinBytes = 96
)

// Burst is one gap-delimited run of datagrams in a single direction.
type Burst struct {
	// Bytes is the summed size of the contributing datagrams.
	Bytes int
	// Datagrams counts the contributing datagrams.
	Datagrams int
	// Start and End are the first and last contributing arrival times.
	Start, End time.Time
}

// BurstSegmenter groups one direction's datagrams into bursts. Feed
// datagrams in arrival order; completed bursts come back as they close.
// Segmentation is a pure function of the flow's own datagram sequence —
// no wall clock, no cross-flow state — which is what makes the streaming
// monitor's burst stream provably identical to a batch pass over the
// same capture.
//
// The zero value is ready to use; it segments by DefaultBurstGap and
// DefaultBurstMinBytes.
type BurstSegmenter struct {
	open Burst
	last time.Time // arrival time of the last contributing datagram
}

// Feed observes one datagram of size n arriving at ts. It returns the
// burst the datagram closed, if any, and whether one closed.
//
// Sub-floor datagrams never contribute bytes and never extend a burst's
// life, but they still run the gap check: a lone ack arriving long after
// a write's last data datagram is exactly the silence that proves the
// burst is over. Out-of-order arrivals (UDP reorders; so do taps) fold
// into the open burst, extending its span backward if needed, rather
// than fabricating a phantom gap.
func (s *BurstSegmenter) Feed(ts time.Time, n int) (Burst, bool) {
	var closed Burst
	var ok bool
	if s.open.Datagrams > 0 && ts.Sub(s.last) > DefaultBurstGap {
		closed, ok = s.open, true
		s.open = Burst{}
	}
	if n >= DefaultBurstMinBytes {
		if s.open.Datagrams == 0 {
			s.open = Burst{Start: ts, End: ts}
		}
		s.open.Bytes += n
		s.open.Datagrams++
		if ts.Before(s.open.Start) {
			s.open.Start = ts
		}
		if ts.After(s.open.End) {
			s.open.End = ts
		}
		if ts.After(s.last) {
			s.last = ts
		}
	}
	return closed, ok
}

// Flush closes and returns the open burst, if any. Call it when the flow
// ends (idle expiry, monitor close, end of capture) so the final write is
// not lost.
func (s *BurstSegmenter) Flush() (Burst, bool) {
	if s.open.Datagrams == 0 {
		return Burst{}, false
	}
	b := s.open
	s.open = Burst{}
	s.last = time.Time{}
	return b, true
}

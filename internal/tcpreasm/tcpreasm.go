// Package tcpreasm reassembles TCP byte streams from captured segments.
//
// The White Mirror attack operates on TLS records, which span TCP segment
// boundaries; the analyzer therefore needs per-direction, in-order byte
// streams with the arrival time of each contributing segment preserved so
// record timestamps can be recovered. The reassembler handles out-of-order
// arrival, duplicate segments, overlapping retransmissions and
// sequence-number wraparound. Overlaps resolve by three rules, so the
// delivered bytes and their boundaries depend only on the order segments
// arrive in:
//
//   - delivered bytes are never replaced: a segment overlapping them
//     contributes only its new tail;
//   - at an equal offset the longer buffered segment is kept;
//   - when no buffered segment starts at the delivery point but some
//     cover it, the one with the lowest offset is trimmed and delivered.
//
// A stream passes each in-order run of bytes on the moment it is
// delivered: a stream made by NewStreamTo to its Consumer's Feed (the
// attack's record scanner reads TLS headers straight from the payload),
// one made by NewStream as a Chunk on its chunk list (DeliveredChunks).
// An in-order payload is delivered as is, aliasing whatever memory it
// arrived in. The stream copies only the out-of-order bytes it must hold
// until the gap before them fills. A consumer whose caller reuses its
// packet buffers therefore reads each delivered run, or releases each
// chunk, before that memory is reused.
package tcpreasm

import (
	"cmp"
	"slices"
	"time"

	"repro/internal/layers"
)

// Chunk is a contiguous run of in-order stream bytes together with the
// capture timestamp of the segment that first delivered its initial byte.
type Chunk struct {
	Time time.Time
	Data []byte
	// StreamOffset is the byte offset of Data[0] from the start of the
	// application stream (the byte after SYN).
	StreamOffset int64
}

// Consumer receives a stream's in-order bytes as they are delivered:
// data starts at the stream offset the bytes before it end at, and ts is
// the capture time of the segment that delivered its first byte.
// tlsrec.RecordScanner is one. data may alias the fed packet's payload,
// so a consumer that keeps it past the call copies it.
type Consumer interface {
	Feed(ts time.Time, data []byte)
}

// Stream is one direction of a TCP conversation.
type Stream struct {
	Key layers.FlowKey

	out      Consumer // nil: delivered bytes join chunks
	discard  bool     // rolling-window eviction: count bytes, buffer nothing
	synSeen  bool
	isn      uint32 // initial sequence number (of SYN)
	nextRel  int64  // next expected relative offset (bytes delivered)
	chunks   []Chunk
	released int          // chunks dropped from the front by ReleaseThrough
	pending  []pendingSeg // out-of-order segments, ascending offset, one per offset
	finSeen  bool
	finRel   int64
	rstSeen  bool
	bytesIn  int64 // total payload bytes accepted (including dups trimmed away)
	segCount int
}

// pendingSeg is one buffered out-of-order segment at relative offset off.
type pendingSeg struct {
	off  int64
	time time.Time
	data []byte
}

// NewStream returns an empty stream for one direction that keeps what it
// delivers as a chunk list (Chunks, DeliveredChunks). A consumer that
// already keeps per-conversation state owns its two streams through this
// constructor and feeds them directly, skipping the Assembler's lookup.
func NewStream(key layers.FlowKey) *Stream { return &Stream{Key: key} }

// NewStreamTo returns an empty stream for one direction that hands every
// in-order run of bytes to c as it is delivered and keeps no chunk list:
// Chunks stays empty, and BufferedBytes counts only the out-of-order
// segments held behind a gap.
func NewStreamTo(key layers.FlowKey, c Consumer) *Stream { return &Stream{Key: key, out: c} }

// Chunks returns the in-order chunks delivered and not yet released.
func (s *Stream) Chunks() []Chunk { return s.chunks }

// DeliveredChunks returns the chunks delivered at or after index since —
// the incremental form of Chunks. A streaming consumer remembers how many
// chunks it has processed and asks for the delta after each packet, so
// per-flow analysis (e.g. a TLS record scanner) advances in lock-step
// with reassembly instead of rescanning from the start of the stream.
// The index is absolute over the stream's lifetime: chunks dropped by
// ReleaseThrough still count, and asking for an index inside the released
// prefix returns from the first retained chunk.
func (s *Stream) DeliveredChunks(since int) []Chunk {
	since -= s.released
	if since >= len(s.chunks) {
		return nil
	}
	if since < 0 {
		since = 0
	}
	return s.chunks[since:]
}

// ReleaseThrough drops every delivered chunk with absolute index < n. It
// is the rolling-window consumer's half of the DeliveredChunks cursor
// contract: once a chunk has been scanned, releasing it drops the
// stream's hold on the memory behind it (the caller's buffer, an
// out-of-order copy), so a monitor can run indefinitely without
// retaining the whole stream. Releasing past the delivered count is
// clamped.
func (s *Stream) ReleaseThrough(n int) {
	k := n - s.released
	if k <= 0 {
		return
	}
	if k > len(s.chunks) {
		k = len(s.chunks)
	}
	rest := copy(s.chunks, s.chunks[k:])
	// Zero the tail so the backing array stops pinning payload memory.
	for i := rest; i < len(s.chunks); i++ {
		s.chunks[i] = Chunk{}
	}
	s.chunks = s.chunks[:rest]
	s.released += k
}

// Released returns the number of chunks dropped by ReleaseThrough.
func (s *Stream) Released() int { return s.released }

// Discard evicts the stream: every buffered chunk and pending segment is
// released now, and future payloads are counted but never buffered or
// delivered (the delivery cursor jumps over them, so Len stays meaningful
// and FIN/RST completion still tracks). A rolling-window monitor uses it
// for flows that can never be attacked — non-TLS conversations, rejected
// noise — so their reassembly state stops growing.
func (s *Stream) Discard() {
	if s.discard {
		return
	}
	s.discard = true
	s.ReleaseThrough(s.released + len(s.chunks))
	s.pending = nil
}

// Bytes concatenates the retained (unreleased) delivered stream.
func (s *Stream) Bytes() []byte {
	var n int
	for _, c := range s.chunks {
		n += len(c.Data)
	}
	out := make([]byte, 0, n)
	for _, c := range s.chunks {
		out = append(out, c.Data...)
	}
	return out
}

// Len returns the number of contiguous bytes delivered.
func (s *Stream) Len() int64 { return s.nextRel }

// BufferedBytes returns the payload bytes the stream currently retains:
// unreleased delivered chunks plus out-of-order pending segments. It is
// the figure a rolling-window monitor's memory accounting sums per flow;
// a stream with a Consumer holds only the pending segments.
func (s *Stream) BufferedBytes() int64 {
	var n int64
	for _, c := range s.chunks {
		n += int64(len(c.Data))
	}
	for _, p := range s.pending {
		n += int64(len(p.data))
	}
	return n
}

// Complete reports whether a FIN was seen and every byte up to it has
// been delivered.
func (s *Stream) Complete() bool { return s.finSeen && s.nextRel >= s.finRel }

// Aborted reports whether an RST was seen; the conversation is dead from
// that point and a streaming consumer finalizes the flow immediately.
func (s *Stream) Aborted() bool { return s.rstSeen }

// Gaps reports the number of byte ranges still missing before the highest
// buffered segment, useful for diagnosing lossy captures.
func (s *Stream) Gaps() int { return len(s.pending) }

// Segments returns the count of payload-bearing segments fed to the stream.
func (s *Stream) Segments() int { return s.segCount }

// relOffset converts an absolute sequence number to a relative stream
// offset, tolerating 32-bit wraparound by choosing the representative
// nearest to the current delivery point.
func (s *Stream) relOffset(seq uint32) int64 {
	diff := int64(int32(seq - s.isn - 1)) // -1: SYN consumes one seq number
	// Unwrap: pick diff + k*2^32 closest to nextRel.
	const span = int64(1) << 32
	base := diff
	for base < s.nextRel-span/2 {
		base += span
	}
	return base
}

// Feed ingests one decoded segment of this direction: p.Flow() must be
// the stream's Key. The SYN fixes the sequence origin (a mid-stream
// capture adopts the first segment's), FIN and RST are tracked for
// Complete and Aborted, and payload bytes are delivered in order, to the
// stream's Consumer or as chunks, before Feed returns.
func (s *Stream) Feed(p *layers.Packet) {
	tcp, payload := p.TCP, p.Payload
	if tcp.Flags&layers.TCPSyn != 0 && !s.synSeen {
		s.synSeen = true
		s.isn = tcp.Seq
		return // TFO-style SYN data is not reassembled
	}
	if !s.synSeen {
		// Mid-stream capture: adopt the first segment's sequence number as
		// the stream origin so analysis still works without the handshake.
		s.synSeen = true
		s.isn = tcp.Seq - 1
	}
	if tcp.Flags&layers.TCPFin != 0 {
		rel := s.relOffset(tcp.Seq) + int64(len(payload))
		if !s.finSeen || rel < s.finRel {
			s.finSeen, s.finRel = true, rel
		}
	}
	if tcp.Flags&layers.TCPRst != 0 {
		s.rstSeen = true
	}
	if len(payload) == 0 {
		return
	}
	s.segCount++
	s.bytesIn += int64(len(payload))

	rel := s.relOffset(tcp.Seq)
	end := rel + int64(len(payload))
	if s.discard {
		// Evicted stream: advance the delivery cursor past the data (gaps
		// are of no consequence once nothing downstream reads bytes).
		if end > s.nextRel {
			s.nextRel = end
		}
		return
	}
	if end <= s.nextRel {
		return // pure retransmission of delivered data
	}
	if rel < s.nextRel {
		// Partial overlap with delivered data: keep only the new tail.
		payload = payload[s.nextRel-rel:]
		rel = s.nextRel
	}
	if rel == s.nextRel {
		// In order: delivered as is, then whatever it joins up in pending.
		s.deliver(p.Timestamp, payload)
		s.drain()
		return
	}
	i, found := slices.BinarySearchFunc(s.pending, rel, atOffset)
	if found && len(s.pending[i].data) >= len(payload) {
		return // duplicate of a buffered segment
	}
	// Out of order: held past the call, so this is the one copy.
	seg := pendingSeg{off: rel, time: p.Timestamp, data: append([]byte(nil), payload...)}
	if found {
		s.pending[i] = seg // superseded by the longer arrival
	} else {
		s.pending = slices.Insert(s.pending, i, seg)
	}
}

// deliver hands data, the bytes at the delivery point, to the consumer,
// or appends it as a chunk when the stream has none.
func (s *Stream) deliver(ts time.Time, data []byte) {
	if s.out != nil {
		s.out.Feed(ts, data)
	} else {
		s.chunks = append(s.chunks, Chunk{Time: ts, Data: data, StreamOffset: s.nextRel})
	}
	s.nextRel += int64(len(data))
}

// drain delivers buffered segments while the front of pending reaches
// the delivery point. pending is sorted by offset, so every segment at
// or behind the point sits at the front and each step pops one by
// advancing the slice: a gap filled behind n buffered segments drains
// in O(n).
func (s *Stream) drain() {
	for len(s.pending) > 0 && s.pending[0].off <= s.nextRel {
		// A segment wholly behind the delivery point is superseded and
		// only popped.
		if seg := s.pending[0]; seg.off+int64(len(seg.data)) > s.nextRel {
			if seg.off < s.nextRel {
				// A segment that starts exactly at the delivery point wins;
				// failing that the lowest covering one (this one) is trimmed.
				if j, found := slices.BinarySearchFunc(s.pending, s.nextRel, atOffset); found {
					seg = s.pending[j]
					copy(s.pending[1:j+1], s.pending[:j])
				} else {
					seg.data = seg.data[s.nextRel-seg.off:]
				}
			}
			s.deliver(seg.time, seg.data)
		}
		s.pending[0] = pendingSeg{} // stop pinning the payload
		s.pending = s.pending[1:]
	}
}

// atOffset orders a buffered segment against an offset, for binary
// search over pending.
func atOffset(p pendingSeg, off int64) int { return cmp.Compare(p.off, off) }

// Assembler demultiplexes packets into per-direction streams.
type Assembler struct {
	streams map[layers.FlowKey]*Stream
}

// NewAssembler returns an empty assembler.
func NewAssembler() *Assembler {
	return &Assembler{streams: make(map[layers.FlowKey]*Stream)}
}

// SetStablePayloads does nothing: every stream delivers in-order
// payloads without a copy and copies only the out-of-order bytes it
// holds, whatever memory the payloads come from.
//
// Deprecated: there is no copy left to declare away.
func (a *Assembler) SetStablePayloads(bool) {}

// Feed routes one decoded packet to its directional stream, creating the
// stream on first sight, and returns the stream the packet landed in so
// incremental consumers can follow up on exactly the flow that changed.
func (a *Assembler) Feed(p *layers.Packet) *Stream {
	key := p.Flow()
	st, ok := a.streams[key]
	if !ok {
		st = NewStream(key)
		a.streams[key] = st
	}
	st.Feed(p)
	return st
}

// Stream returns the stream for a directional key, or nil.
func (a *Assembler) Stream(key layers.FlowKey) *Stream {
	return a.streams[key]
}

package tcpreasm

import (
	"bytes"
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/layers"
	"repro/internal/wire"
)

var (
	cli = netip.MustParseAddr("10.0.0.2")
	srv = netip.MustParseAddr("10.0.0.1")
	key = layers.FlowKey{SrcAddr: cli, DstAddr: srv, SrcPort: 51000, DstPort: 443}
)

// seg builds a decoded packet for the test flow.
func seg(seq uint32, flags layers.TCPFlags, payload []byte, at int) *layers.Packet {
	return &layers.Packet{
		Timestamp: time.Unix(1700000000, int64(at)*1e6),
		IPVersion: 4,
		IP4:       layers.IPv4{Src: cli, Dst: srv, Protocol: layers.IPProtocolTCP},
		TCP: layers.TCP{SrcPort: key.SrcPort, DstPort: key.DstPort,
			Seq: seq, Flags: flags},
		Payload: payload,
	}
}

func TestInOrderDelivery(t *testing.T) {
	a := NewAssembler()
	a.Feed(seg(1000, layers.TCPSyn, nil, 0))
	a.Feed(seg(1001, layers.TCPPsh|layers.TCPAck, []byte("hello "), 1))
	a.Feed(seg(1007, layers.TCPPsh|layers.TCPAck, []byte("world"), 2))
	st := a.Stream(key)
	if st == nil {
		t.Fatal("stream not created")
	}
	if got := string(st.Bytes()); got != "hello world" {
		t.Errorf("stream = %q", got)
	}
	if st.Len() != 11 {
		t.Errorf("Len = %d", st.Len())
	}
	if st.Gaps() != 0 {
		t.Errorf("Gaps = %d", st.Gaps())
	}
}

func TestOutOfOrderDelivery(t *testing.T) {
	a := NewAssembler()
	a.Feed(seg(1000, layers.TCPSyn, nil, 0))
	a.Feed(seg(1007, layers.TCPAck, []byte("world"), 1)) // arrives early
	st := a.Stream(key)
	if st.Len() != 0 {
		t.Fatalf("delivered %d bytes before gap filled", st.Len())
	}
	if st.Gaps() != 1 {
		t.Errorf("Gaps = %d, want 1", st.Gaps())
	}
	a.Feed(seg(1001, layers.TCPAck, []byte("hello "), 2))
	if got := string(st.Bytes()); got != "hello world" {
		t.Errorf("stream = %q", got)
	}
}

func TestDuplicateSegmentsIgnored(t *testing.T) {
	a := NewAssembler()
	a.Feed(seg(1000, layers.TCPSyn, nil, 0))
	a.Feed(seg(1001, layers.TCPAck, []byte("abc"), 1))
	a.Feed(seg(1001, layers.TCPAck, []byte("abc"), 2)) // exact retransmit
	st := a.Stream(key)
	if got := string(st.Bytes()); got != "abc" {
		t.Errorf("stream = %q", got)
	}
}

func TestOverlappingRetransmitTrimmed(t *testing.T) {
	a := NewAssembler()
	a.Feed(seg(1000, layers.TCPSyn, nil, 0))
	a.Feed(seg(1001, layers.TCPAck, []byte("abcd"), 1))
	// Retransmit covering old data plus two new bytes.
	a.Feed(seg(1003, layers.TCPAck, []byte("cdEF"), 2))
	st := a.Stream(key)
	if got := string(st.Bytes()); got != "abcdEF" {
		t.Errorf("stream = %q, want abcdEF", got)
	}
}

func TestOverlapFillsGapThenTrims(t *testing.T) {
	a := NewAssembler()
	a.Feed(seg(1000, layers.TCPSyn, nil, 0))
	a.Feed(seg(1001, layers.TCPAck, []byte("ab"), 1))
	// Out-of-order segment at offset 4.
	a.Feed(seg(1005, layers.TCPAck, []byte("ef"), 2))
	// A retransmit spanning offsets 1..5 bridges the gap with overlap on
	// both sides.
	a.Feed(seg(1002, layers.TCPAck, []byte("bcde"), 3))
	st := a.Stream(key)
	if got := string(st.Bytes()); got != "abcdef" {
		t.Errorf("stream = %q, want abcdef", got)
	}
	if st.Gaps() != 0 {
		t.Errorf("Gaps = %d", st.Gaps())
	}
}

func TestChunkTimestampsPreserved(t *testing.T) {
	a := NewAssembler()
	a.Feed(seg(1000, layers.TCPSyn, nil, 0))
	a.Feed(seg(1001, layers.TCPAck, []byte("aa"), 5))
	a.Feed(seg(1003, layers.TCPAck, []byte("bb"), 9))
	st := a.Stream(key)
	chunks := st.Chunks()
	if len(chunks) != 2 {
		t.Fatalf("chunks = %d", len(chunks))
	}
	if chunks[0].Time.Nanosecond() != 5e6 || chunks[1].Time.Nanosecond() != 9e6 {
		t.Errorf("chunk times: %v, %v", chunks[0].Time, chunks[1].Time)
	}
	if chunks[0].StreamOffset != 0 || chunks[1].StreamOffset != 2 {
		t.Errorf("offsets: %d, %d", chunks[0].StreamOffset, chunks[1].StreamOffset)
	}
}

func TestFinCompletion(t *testing.T) {
	a := NewAssembler()
	a.Feed(seg(1000, layers.TCPSyn, nil, 0))
	a.Feed(seg(1001, layers.TCPAck, []byte("xyz"), 1))
	st := a.Stream(key)
	if st.Complete() {
		t.Error("complete before FIN")
	}
	a.Feed(seg(1004, layers.TCPFin|layers.TCPAck, nil, 2))
	if !st.Complete() {
		t.Error("not complete after FIN with all bytes delivered")
	}
}

func TestFinBeforeGapNotComplete(t *testing.T) {
	a := NewAssembler()
	a.Feed(seg(1000, layers.TCPSyn, nil, 0))
	a.Feed(seg(1004, layers.TCPAck, []byte("later"), 1)) // gap at 0..3
	a.Feed(seg(1009, layers.TCPFin|layers.TCPAck, nil, 2))
	st := a.Stream(key)
	if st.Complete() {
		t.Error("complete despite missing bytes")
	}
}

func TestMidStreamCaptureAdoptsOrigin(t *testing.T) {
	// No SYN: first data segment defines the origin.
	a := NewAssembler()
	a.Feed(seg(5000, layers.TCPAck, []byte("mid"), 0))
	a.Feed(seg(5003, layers.TCPAck, []byte("str"), 1))
	st := a.Stream(key)
	if got := string(st.Bytes()); got != "midstr" {
		t.Errorf("stream = %q", got)
	}
}

func TestSequenceWraparound(t *testing.T) {
	a := NewAssembler()
	isn := uint32(0xfffffff0)
	a.Feed(seg(isn, layers.TCPSyn, nil, 0))
	payload1 := bytes.Repeat([]byte("a"), 20) // crosses the 2^32 boundary
	a.Feed(seg(isn+1, layers.TCPAck, payload1, 1))
	a.Feed(seg(isn+21, layers.TCPAck, []byte("tail"), 2)) // wrapped seq
	st := a.Stream(key)
	want := string(payload1) + "tail"
	if got := string(st.Bytes()); got != want {
		t.Errorf("wraparound stream = %q (len %d), want len %d", got, len(got), len(want))
	}
}

// TestRandomizedReorderProperty verifies the core reassembly invariant:
// any segmentation of a byte stream, delivered in any order with random
// duplication, reproduces exactly the original stream.
func TestRandomizedReorderProperty(t *testing.T) {
	f := func(seed uint64, streamLen16 uint16) bool {
		rng := wire.NewRNG(seed)
		streamLen := int(streamLen16%2000) + 1
		stream := make([]byte, streamLen)
		for i := range stream {
			stream[i] = byte(rng.Uint64())
		}
		// Random segmentation.
		type rawSeg struct {
			off, n int
		}
		var segs []rawSeg
		for off := 0; off < streamLen; {
			n := rng.IntRange(1, 400)
			if off+n > streamLen {
				n = streamLen - off
			}
			segs = append(segs, rawSeg{off, n})
			off += n
		}
		// Duplicate ~20% of segments, then shuffle.
		for _, s := range segs {
			if rng.Bool(0.2) {
				segs = append(segs, s)
			}
		}
		rng.Shuffle(len(segs), func(i, j int) { segs[i], segs[j] = segs[j], segs[i] })

		a := NewAssembler()
		isn := uint32(rng.Uint64())
		a.Feed(seg(isn, layers.TCPSyn, nil, 0))
		for i, s := range segs {
			a.Feed(seg(isn+1+uint32(s.off), layers.TCPAck, stream[s.off:s.off+s.n], i+1))
		}
		st := a.Stream(key)
		return bytes.Equal(st.Bytes(), stream) && st.Gaps() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestFeedReturnsTouchedStream pins the incremental contract: Feed hands
// back the stream the segment landed in, so a streaming consumer can
// follow the delta without scanning every flow.
func TestFeedReturnsTouchedStream(t *testing.T) {
	a := NewAssembler()
	st := a.Feed(seg(1000, layers.TCPSyn, nil, 0))
	if st == nil || st.Key != key {
		t.Fatalf("Feed returned %+v, want stream for %v", st, key)
	}
	if got := a.Feed(seg(1001, layers.TCPAck, []byte("abc"), 1)); got != st {
		t.Error("Feed returned a different stream for the same flow")
	}
}

// TestDeliveredChunksCursor walks the incremental chunk API the way a
// live monitor does: after each segment, consume only the new chunks.
func TestDeliveredChunksCursor(t *testing.T) {
	a := NewAssembler()
	a.Feed(seg(1000, layers.TCPSyn, nil, 0))
	var got []byte
	consumed := 0
	feed := func(p *layers.Packet) {
		st := a.Feed(p)
		for _, c := range st.DeliveredChunks(consumed) {
			got = append(got, c.Data...)
			consumed++
		}
	}
	feed(seg(1001, layers.TCPAck, []byte("he"), 1))
	feed(seg(1007, layers.TCPAck, []byte("world"), 2)) // out of order
	feed(seg(1003, layers.TCPAck, []byte("llo "), 3))  // fills the gap
	if string(got) != "hello world" {
		t.Errorf("incremental consumption = %q", got)
	}
	if st := a.Stream(key); st.DeliveredChunks(consumed) != nil {
		t.Error("cursor at end should yield no chunks")
	}
}

// TestStablePayloadsNotCopied pins the copy contract: an in-order chunk
// aliases the payload it was fed from, and an out-of-order payload is
// copied when it is buffered, so the caller overwriting its buffer right
// after the call does not reach the stream.
func TestStablePayloadsNotCopied(t *testing.T) {
	a := NewAssembler()
	a.Feed(seg(1000, layers.TCPSyn, nil, 0))
	buf := []byte("world")
	a.Feed(seg(1007, layers.TCPAck, buf, 1)) // buffered: gap before it
	copy(buf, "XXXXX")
	hello := []byte("hello ")
	a.Feed(seg(1001, layers.TCPAck, hello, 2))
	st := a.Stream(key)
	if got := string(st.Bytes()); got != "hello world" {
		t.Fatalf("stream = %q", got)
	}
	chunks := st.Chunks()
	if &chunks[0].Data[0] != &hello[0] {
		t.Error("in-order payload was copied")
	}
	if last := chunks[len(chunks)-1]; &last.Data[0] == &buf[0] {
		t.Error("buffered out-of-order payload aliases the caller's buffer")
	}
}

// TestReleaseThroughCursor pins the rolling-window half of the
// DeliveredChunks contract: indices stay absolute across releases, the
// released prefix is gone, and releasing is clamped and idempotent.
func TestReleaseThroughCursor(t *testing.T) {
	a := NewAssembler()
	a.Feed(seg(1000, layers.TCPSyn, nil, 0))
	a.Feed(seg(1001, layers.TCPAck, []byte("aa"), 1))
	a.Feed(seg(1003, layers.TCPAck, []byte("bb"), 2))
	a.Feed(seg(1005, layers.TCPAck, []byte("cc"), 3))
	st := a.Stream(key)
	if len(st.Chunks()) != 3 {
		t.Fatalf("chunks = %d", len(st.Chunks()))
	}
	st.ReleaseThrough(2)
	if st.Released() != 2 || len(st.Chunks()) != 1 {
		t.Fatalf("after release: released=%d retained=%d", st.Released(), len(st.Chunks()))
	}
	if got := st.DeliveredChunks(2); len(got) != 1 || string(got[0].Data) != "cc" {
		t.Fatalf("DeliveredChunks(2) = %v", got)
	}
	// New data keeps flowing behind the released prefix.
	a.Feed(seg(1007, layers.TCPAck, []byte("dd"), 4))
	if got := st.DeliveredChunks(3); len(got) != 1 || string(got[0].Data) != "dd" {
		t.Fatalf("DeliveredChunks(3) = %v", got)
	}
	if st.Len() != 8 {
		t.Errorf("Len = %d after releases (must stay absolute)", st.Len())
	}
	st.ReleaseThrough(100) // clamped
	if len(st.Chunks()) != 0 || st.Released() != 4 {
		t.Errorf("clamped release: released=%d retained=%d", st.Released(), len(st.Chunks()))
	}
	st.ReleaseThrough(1) // backwards: no-op
	if st.Released() != 4 {
		t.Errorf("backwards release moved the cursor: %d", st.Released())
	}
}

// TestDiscardStopsBuffering covers eviction: a discarded stream releases
// what it held, buffers nothing new, and still tracks delivery length and
// FIN completion so transport-state finalization keeps working.
func TestDiscardStopsBuffering(t *testing.T) {
	a := NewAssembler()
	a.Feed(seg(1000, layers.TCPSyn, nil, 0))
	a.Feed(seg(1001, layers.TCPAck, []byte("hello "), 1))
	a.Feed(seg(1010, layers.TCPAck, []byte("xx"), 2)) // pending behind a gap
	st := a.Stream(key)
	if st.BufferedBytes() != 8 {
		t.Fatalf("BufferedBytes = %d before discard, want 8", st.BufferedBytes())
	}
	st.Discard()
	if st.BufferedBytes() != 0 {
		t.Fatalf("discard left %d bytes buffered", st.BufferedBytes())
	}
	a.Feed(seg(1007, layers.TCPAck, []byte("world"), 3))
	if st.BufferedBytes() != 0 || len(st.Chunks()) != 0 {
		t.Errorf("discarded stream retains memory: %d bytes", st.BufferedBytes())
	}
	if st.Len() != 11 {
		t.Errorf("Len = %d, want 11 (cursor advances past dropped data)", st.Len())
	}
	a.Feed(seg(1012, layers.TCPFin|layers.TCPAck, nil, 4))
	if !st.Complete() {
		t.Error("FIN completion lost in discard mode")
	}
}

// TestAbortedOnRST pins RST tracking: the stream reports Aborted so a
// streaming consumer can finalize the flow at the reset.
func TestAbortedOnRST(t *testing.T) {
	a := NewAssembler()
	a.Feed(seg(1000, layers.TCPSyn, nil, 0))
	a.Feed(seg(1001, layers.TCPAck, []byte("data"), 1))
	st := a.Stream(key)
	if st.Aborted() {
		t.Fatal("aborted before RST")
	}
	a.Feed(seg(1005, layers.TCPRst, nil, 2))
	if !st.Aborted() {
		t.Fatal("RST not tracked")
	}
	if st.Complete() {
		t.Error("RST must not masquerade as a clean FIN close")
	}
}

// chunkTrace renders a stream's retained chunks as offset:"data"@ms.
func chunkTrace(st *Stream) string {
	var parts []string
	for _, c := range st.Chunks() {
		parts = append(parts, fmt.Sprintf("%d:%q@%d", c.StreamOffset, c.Data, c.Time.Nanosecond()/1e6))
	}
	return strings.Join(parts, " ")
}

// TestOverlapResolutionDeterministic pins the overlap rules on three
// overlapping out-of-order retransmits behind a gap: once the gap fills
// past all three starts, the covering segment with the lowest offset is
// trimmed and delivered first. Pending segments used to sit in a map,
// so which covering segment won depended on map iteration order and the
// same input gave different chunk boundaries and arrival times.
func TestOverlapResolutionDeterministic(t *testing.T) {
	const data = "ABCDEFGHIJKLMNOPQRS"
	feed := []struct{ from, to, at int }{
		{5, 15, 1}, {7, 17, 2}, {9, 19, 3}, {0, 4, 4}, {3, 11, 5},
	}
	const want = `0:"ABCD"@4 4:"EFGHIJK"@5 11:"LMNO"@1 15:"PQ"@2 17:"RS"@3`
	for run := 0; run < 300; run++ {
		a := NewAssembler()
		a.Feed(seg(1000, layers.TCPSyn, nil, 0))
		for _, f := range feed {
			a.Feed(seg(1001+uint32(f.from), layers.TCPAck, []byte(data[f.from:f.to]), f.at))
		}
		if got := chunkTrace(a.Stream(key)); got != want {
			t.Fatalf("run %d: chunks %s, want %s", run, got, want)
		}
	}
}

// TestGapFillLinear fills one missing segment behind a long run of
// buffered ones, the shape a single lost packet leaves on a busy flow.
// Delivery must cost time linear in the segments it releases: a drain
// that rescans every buffered segment after each delivered chunk is
// quadratic and took seconds here.
func TestGapFillLinear(t *testing.T) {
	const n, size = 16000, 100
	payload := bytes.Repeat([]byte("x"), size)
	a := NewAssembler()
	a.Feed(seg(1000, layers.TCPSyn, nil, 0))
	for i := 1; i <= n; i++ {
		a.Feed(seg(1001+uint32(i*size), layers.TCPAck, payload, 1))
	}
	st := a.Stream(key)
	if st.Len() != 0 || st.Gaps() != n {
		t.Fatalf("before the fill: Len %d, %d buffered", st.Len(), st.Gaps())
	}
	start := time.Now()
	a.Feed(seg(1001, layers.TCPAck, payload, 2))
	elapsed := time.Since(start)
	if st.Len() != (n+1)*size || st.Gaps() != 0 {
		t.Fatalf("after the fill: Len %d, %d buffered", st.Len(), st.Gaps())
	}
	if elapsed > 250*time.Millisecond {
		t.Errorf("filling one gap behind %d segments took %v, want < 250ms", n, elapsed)
	}
}

// recorder is a Consumer that keeps a copy of every run it is handed.
type recorder struct{ runs []Chunk }

func (r *recorder) Feed(ts time.Time, data []byte) {
	r.runs = append(r.runs, Chunk{Time: ts, Data: append([]byte(nil), data...)})
}

// FuzzStreamDelivery generalises TestRandomizedReorderProperty. The
// stream is cut into consecutive segments, three plan bytes each: a
// length (1 to 256), flags, and a sort key that orders the arrivals.
// Flags drop the segment (bit 0), send it twice (bit 1), send a copy of
// different bytes shifted up to 7 bytes along (bit 2, the shift in bits
// 4-6), or set FIN on it (bit 3). Stream byte isnBack is the first whose
// sequence number wraps past 2^32. Two streams are fed the same segments,
// after a SYN: one that delivers to a Consumer and one that keeps a chunk
// list, read and released after every segment as a chunk consumer does.
// After every segment the runs handed to the consumer must equal the new
// chunks, time and bytes, and Len, Gaps, BufferedBytes and Complete must
// agree. With nothing dropped or altered, the delivered bytes are the
// stream.
func FuzzStreamDelivery(f *testing.F) {
	f.Add(uint16(0), []byte{9, 0, 0, 99, 0, 1, 255, 8, 2})            // in order, FIN last
	f.Add(uint16(100), []byte{200, 0, 3, 200, 2, 2, 200, 0, 1})       // reordered across the wrap
	f.Add(uint16(5), []byte{50, 0x34, 2, 50, 0, 1, 50, 0x14, 0})      // shifted copies of other bytes
	f.Add(uint16(0xffff), []byte{30, 1, 0, 30, 0, 1, 30, 8, 2})       // first segment dropped
	f.Add(uint16(7), []byte{3, 2, 9, 1, 6, 8, 255, 0x72, 7, 4, 0, 3}) // duplicates out of order
	f.Fuzz(func(t *testing.T, isnBack uint16, plan []byte) {
		type segment struct {
			off   int
			data  []byte
			flags layers.TCPFlags
			key   byte
		}
		var stream []byte
		var segs []segment
		faithful := true
		for ; len(plan) >= 3; plan = plan[3:] {
			n, flags, key := int(plan[0])+1, plan[1], plan[2]
			off := len(stream)
			for i := range n {
				stream = append(stream, byte(off+i)*31+7)
			}
			tcpFlags := layers.TCPAck
			if flags&8 != 0 {
				tcpFlags |= layers.TCPFin
			}
			if flags&1 != 0 {
				faithful = false
			} else {
				segs = append(segs, segment{off, stream[off:], tcpFlags, key})
			}
			if flags&2 != 0 {
				segs = append(segs, segment{off, stream[off:], layers.TCPAck, key + 1})
			}
			if flags&4 != 0 {
				faithful = false
				other := make([]byte, n)
				for i := range other {
					other[i] = ^byte(off + i)
				}
				segs = append(segs, segment{off + int(flags>>4&7), other, layers.TCPAck, key + 2})
			}
		}
		slices.SortStableFunc(segs, func(a, b segment) int { return int(a.key) - int(b.key) })

		sink := &recorder{}
		direct, chunked := NewStreamTo(key, sink), NewStream(key)
		isn := ^uint32(isnBack) // the SYN's; byte 0 is isn+1
		consumed, at := 0, int64(0)
		var delivered []byte
		for i, sg := range append([]segment{{flags: layers.TCPSyn}}, segs...) {
			seq := isn
			if sg.flags&layers.TCPSyn == 0 {
				seq = isn + 1 + uint32(sg.off)
			}
			p := seg(seq, sg.flags, sg.data, i)
			direct.Feed(p)
			chunked.Feed(p)
			runs := sink.runs
			sink.runs = sink.runs[:0]
			chunks := chunked.DeliveredChunks(consumed)
			if len(runs) != len(chunks) {
				t.Fatalf("segment %d: %d runs delivered, %d chunks", i, len(runs), len(chunks))
			}
			for j, c := range chunks {
				if c.StreamOffset != at || !runs[j].Time.Equal(c.Time) || !bytes.Equal(runs[j].Data, c.Data) {
					t.Fatalf("segment %d: run %d at %d = %q@%v, chunk %q@%v at %d", i, j, at,
						runs[j].Data, runs[j].Time, c.Data, c.Time, c.StreamOffset)
				}
				at += int64(len(c.Data))
				delivered = append(delivered, c.Data...)
			}
			consumed += len(chunks)
			chunked.ReleaseThrough(consumed)
			if direct.Len() != chunked.Len() || direct.Len() != at || direct.Gaps() != chunked.Gaps() ||
				direct.BufferedBytes() != chunked.BufferedBytes() || direct.Complete() != chunked.Complete() {
				t.Fatalf("segment %d: Len %d/%d (delivered %d), Gaps %d/%d, BufferedBytes %d/%d, Complete %v/%v",
					i, direct.Len(), chunked.Len(), at, direct.Gaps(), chunked.Gaps(),
					direct.BufferedBytes(), chunked.BufferedBytes(), direct.Complete(), chunked.Complete())
			}
		}
		if faithful && (!bytes.Equal(delivered, stream) || direct.Gaps() != 0) {
			t.Fatalf("delivered %d bytes with %d gaps, want the %d-byte stream", len(delivered), direct.Gaps(), len(stream))
		}
	})
}

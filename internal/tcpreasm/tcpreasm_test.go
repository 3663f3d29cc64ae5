package tcpreasm

import (
	"bytes"
	"fmt"
	"net/netip"
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

package quicrec

import (
	"slices"
	"testing"
	"time"

	"repro/internal/wire"
)

var t0 = time.Unix(1735689600, 0)

func sum(dgs []Datagram) int {
	n := 0
	for _, d := range dgs {
		n += d.Size
	}
	return n
}

func TestWriteApplicationDataDefaultSizing(t *testing.T) {
	c := NewConn(Params{}, false, wire.NewRNG(1))
	w := wire.NewWriter(8 << 10)
	dgs := c.WriteApplicationData(w, t0, 2188)
	if len(dgs) != 2 {
		t.Fatalf("datagrams = %d, want 2", len(dgs))
	}
	if dgs[0].Size != DefaultMaxDatagram {
		t.Errorf("first datagram = %d, want full %d", dgs[0].Size, DefaultMaxDatagram)
	}
	overhead := c.params.PacketOverhead()
	want := 2188 + 2*overhead
	if got := sum(dgs); got != want {
		t.Errorf("burst bytes = %d, want %d", got, want)
	}
	if got := w.Len(); got != want {
		t.Errorf("wire bytes = %d, want %d (descriptors must match emitted bytes)", got, want)
	}
	for _, d := range dgs {
		if d.Long {
			t.Error("1-RTT datagram marked long")
		}
	}
	if !dgs[1].Time.After(dgs[0].Time) {
		t.Error("datagram times must be strictly increasing within a write")
	}
}

func TestWriteApplicationDataPadFull(t *testing.T) {
	c := NewConn(Params{Sizing: PadFull(1350)}, false, wire.NewRNG(1))
	w := wire.NewWriter(8 << 10)
	dgs := c.WriteApplicationData(w, t0, 2188)
	if len(dgs) != 2 {
		t.Fatalf("datagrams = %d, want 2", len(dgs))
	}
	for _, d := range dgs {
		if d.Size != 1350 {
			t.Errorf("padded datagram = %d, want 1350", d.Size)
		}
	}
	if w.Len() != 2700 {
		t.Errorf("wire bytes = %d, want 2700", w.Len())
	}
}

func TestWriteApplicationDataPadRandomAddsDummies(t *testing.T) {
	// Across many writes the dummy count must span 0..K and every
	// datagram must be full-size.
	c := NewConn(Params{Sizing: PadRandom(1350, 2)}, false, wire.NewRNG(7))
	w := wire.NewDiscardWriter()
	seen := map[int]bool{}
	for i := 0; i < 64; i++ {
		dgs := c.WriteApplicationData(w, t0, 2188)
		extra := len(dgs) - 2
		if extra < 0 || extra > 2 {
			t.Fatalf("write %d: %d datagrams", i, len(dgs))
		}
		seen[extra] = true
		for _, d := range dgs {
			if d.Size != 1350 {
				t.Fatalf("pad-random datagram = %d, want 1350", d.Size)
			}
		}
	}
	if !seen[0] || !seen[1] || !seen[2] {
		t.Errorf("dummy counts seen = %v, want all of 0..2", seen)
	}
}

func TestSizingEnvelope(t *testing.T) {
	if e := (SizingPolicy{}).Envelope(); e != 0 {
		t.Errorf("default envelope = %d", e)
	}
	if e := PadFull(1350).Envelope(); e != 0 {
		t.Errorf("pad-full envelope = %d (deterministic padding smears nothing)", e)
	}
	if e := PadRandom(1350, 2).Envelope(); e != 2700 {
		t.Errorf("pad-random envelope = %d, want 2700", e)
	}
}

func TestHandshakeTranscriptClient(t *testing.T) {
	c := NewConn(Params{}, false, wire.NewRNG(3))
	w := wire.NewWriter(4 << 10)
	dgs := c.HandshakeTranscript(w, t0, 517)
	if len(dgs) != 1 {
		t.Fatalf("client flight = %d datagrams, want 1", len(dgs))
	}
	if dgs[0].Size != MinInitialDatagram {
		t.Errorf("client Initial datagram = %d, want padded to %d", dgs[0].Size, MinInitialDatagram)
	}
	if !dgs[0].Long {
		t.Error("handshake datagram must be long-header")
	}
	if w.Len() != MinInitialDatagram {
		t.Errorf("wire bytes = %d, want %d", w.Len(), MinInitialDatagram)
	}
	b := w.Bytes()
	if !IsLongHeader(b[0]) || !Sniff(b) {
		t.Error("client Initial must sniff as long-header QUIC")
	}
	ver, dcidLen, ok := ParseLongHeader(b)
	if !ok || ver != 1 || dcidLen != defaultDCIDLen {
		t.Errorf("ParseLongHeader = (%d, %d, %v)", ver, dcidLen, ok)
	}
}

func TestHandshakeTranscriptServerCoalesces(t *testing.T) {
	c := NewConn(Params{}, true, wire.NewRNG(3))
	w := wire.NewWriter(8 << 10)
	dgs := c.HandshakeTranscript(w, t0, 3700)
	if len(dgs) < 3 {
		t.Fatalf("server flight = %d datagrams, want >= 3", len(dgs))
	}
	if dgs[0].Packets < 2 {
		t.Errorf("first server datagram coalesces %d packets, want >= 2 (Initial + Handshake)", dgs[0].Packets)
	}
	for _, d := range dgs {
		if d.Size > DefaultMaxDatagram {
			t.Errorf("datagram %d exceeds cap", d.Size)
		}
		if !d.Long {
			t.Error("server handshake datagram must be long-header")
		}
	}
	if got := sum(dgs); got != w.Len() {
		t.Errorf("descriptor sum %d != wire bytes %d", got, w.Len())
	}
}

func TestWriteAckStaysSmall(t *testing.T) {
	c := NewConn(Params{}, false, wire.NewRNG(5))
	w := wire.NewDiscardWriter()
	for i := 0; i < 32; i++ {
		d := c.WriteAck(w, t0)
		if d.Size < 40 || d.Size > 64 {
			t.Fatalf("ack datagram = %d bytes, want small", d.Size)
		}
	}
}

func TestLeanEqualsFull(t *testing.T) {
	// The same Conn operations against a discard writer must consume the
	// identical rng stream and describe identical datagrams — the lean
	// simulation invariant.
	run := func(w *wire.Writer) []Datagram {
		c := NewConn(Params{Sizing: PadRandom(1350, 2)}, true, wire.NewRNG(11))
		var out []Datagram
		out = append(out, c.HandshakeTranscript(w, t0, 3700)...)
		for i := 0; i < 8; i++ {
			out = append(out, c.WriteApplicationData(w, t0.Add(time.Duration(i)*time.Second), 2980)...)
			out = append(out, c.WriteAck(w, t0.Add(time.Duration(i)*time.Second+time.Millisecond)))
		}
		return out
	}
	full := run(wire.NewWriter(1 << 20))
	lean := run(wire.NewDiscardWriter())
	if len(full) != len(lean) {
		t.Fatalf("datagram counts differ: %d vs %d", len(full), len(lean))
	}
	for i := range full {
		if full[i] != lean[i] {
			t.Fatalf("datagram %d differs: full %+v lean %+v", i, full[i], lean[i])
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() ([]Datagram, []byte) {
		c := NewConn(Params{DCIDLen: 12}, false, wire.NewRNG(99))
		w := wire.NewWriter(1 << 16)
		dgs := c.WriteApplicationData(w, t0, 4600)
		return dgs, w.Bytes()
	}
	d1, b1 := run()
	d2, b2 := run()
	if len(d1) != len(d2) {
		t.Fatal("datagram counts differ across identical runs")
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("datagram %d differs", i)
		}
	}
	if string(b1) != string(b2) {
		t.Fatal("wire bytes differ across identical runs")
	}
}

func TestShortHeaderSniffs(t *testing.T) {
	c := NewConn(Params{}, false, nil)
	w := wire.NewWriter(2 << 10)
	c.WriteApplicationData(w, t0, 100)
	b := w.Bytes()
	if !Sniff(b) {
		t.Error("short-header packet must sniff as QUIC (fixed bit)")
	}
	if IsLongHeader(b[0]) {
		t.Error("1-RTT packet must not be long-header")
	}
	if Sniff([]byte{0x00, 0x01}) {
		t.Error("a DNS-looking payload must not sniff as QUIC")
	}
	if Sniff(nil) {
		t.Error("empty payload must not sniff as QUIC")
	}
}

func TestTransportString(t *testing.T) {
	if TransportTCP.String() != "tcp" || TransportQUIC.String() != "quic" {
		t.Error("transport labels")
	}
}

func TestPacketOverhead(t *testing.T) {
	if got := (Params{}).PacketOverhead(); got != 27 {
		t.Errorf("default overhead = %d, want 27", got)
	}
	if got := (Params{DCIDLen: 20}).PacketOverhead(); got != 39 {
		t.Errorf("20-byte-CID overhead = %d, want 39", got)
	}
}

// TestAppendApplicationDataMatchesWrite: the append form seals the same
// bytes and appends exactly the datagrams WriteApplicationData returns,
// times spaced from the write's own first datagram, leaving the list's
// existing datagrams untouched, under a sizing policy with dummies.
func TestAppendApplicationDataMatchesWrite(t *testing.T) {
	params := Params{Sizing: PadRandom(1350, 2)}
	wc, ac := NewConn(params, true, wire.NewRNG(8)), NewConn(params, true, wire.NewRNG(8))
	ww, aw := wire.NewWriter(1<<20), wire.NewWriter(1<<20)
	var want []Datagram
	got := []Datagram{{Size: -1}, {Size: -2}}
	for i, n := range []int{1, 2188, 0, 40000, 700} {
		at := t0.Add(time.Duration(i) * time.Second)
		want = append(want, wc.WriteApplicationData(ww, at, n)...)
		before := slices.Clone(got)
		got = ac.AppendApplicationData(got, aw, at, n)
		if !slices.Equal(got[:len(before)], before) {
			t.Fatalf("write %d changed the list's existing datagrams", i)
		}
	}
	if !slices.Equal(got[2:], want) {
		t.Fatalf("appended datagrams differ from WriteApplicationData's:\n got %+v\nwant %+v", got[2:], want)
	}
	if !slices.Equal(aw.Bytes(), ww.Bytes()) {
		t.Fatal("the append form sealed different bytes")
	}
}

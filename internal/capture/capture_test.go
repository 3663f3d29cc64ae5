package capture

import (
	"bytes"
	"io"
	"slices"
	"testing"

	"repro/internal/layers"
	"repro/internal/media"
	"repro/internal/pcapio"
	"repro/internal/profiles"
	"repro/internal/script"
	"repro/internal/session"
	"repro/internal/tcpreasm"
	"repro/internal/tlsrec"
	"repro/internal/viewer"
	"repro/internal/wire"
)

func captureTrace(t *testing.T, seed uint64) (*session.Trace, []byte) {
	t.Helper()
	g := script.TinyScript()
	enc := media.Encode(g, media.DefaultLadder, 42)
	pop := viewer.SamplePopulation(1, wire.NewRNG(seed))
	tr, err := session.Run(session.Config{
		Graph: g, Encoding: enc, Viewer: pop[0],
		Condition: profiles.Fig2Ubuntu, SessionID: "cap-test", Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePcap(&buf, tr, Options{Seed: seed}); err != nil {
		t.Fatal(err)
	}
	return tr, buf.Bytes()
}

// reassemble parses a pcap back into per-direction streams and returns
// the client→server key of every conversation, in the order their
// opening SYNs appear; a key's Reverse is the server→client stream.
func reassemble(t *testing.T, pcapBytes []byte) (*tcpreasm.Assembler, []layers.FlowKey) {
	t.Helper()
	r, err := pcapio.NewReader(bytes.NewReader(pcapBytes))
	if err != nil {
		t.Fatal(err)
	}
	asm := tcpreasm.NewAssembler()
	var clients []layers.FlowKey
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		p, err := layers.DecodePacket(rec.Timestamp, rec.Data)
		if err != nil {
			t.Fatalf("undecodable frame in own capture: %v", err)
		}
		if p.TCP.Flags&(layers.TCPSyn|layers.TCPAck) == layers.TCPSyn {
			clients = append(clients, p.Flow())
		}
		asm.Feed(p)
	}
	return asm, clients
}

func TestPcapRoundTripsClientStream(t *testing.T) {
	tr, pcapBytes := captureTrace(t, 1)
	asm, clients := reassemble(t, pcapBytes)
	if len(clients) != 1 {
		t.Fatalf("conversations = %d", len(clients))
	}
	c2s, s2c := asm.Stream(clients[0]), asm.Stream(clients[0].Reverse())
	if c2s == nil || s2c == nil {
		t.Fatal("conversation not fully captured")
	}
	if !bytes.Equal(c2s.Bytes(), tr.ClientToServer.Bytes) {
		t.Errorf("client stream mismatch: got %d bytes, want %d",
			len(c2s.Bytes()), len(tr.ClientToServer.Bytes))
	}
	// The server stream is rendered from the trace's records: it must
	// parse back to exactly them, with every body byte zero apart from
	// ChangeCipherSpec's message.
	recs, rest, err := tlsrec.ParseStream(s2c.Bytes(), nil)
	if err != nil || rest != 0 {
		t.Fatalf("server stream: %v, %d bytes unparsed", err, rest)
	}
	if len(recs) != len(tr.ServerRecords) {
		t.Fatalf("server stream parses to %d records, trace has %d", len(recs), len(tr.ServerRecords))
	}
	for i, r := range recs {
		w := tr.ServerRecords[i]
		if r.Type != w.Type || r.Version != w.Version || r.Length != w.Length || r.StreamOffset != w.StreamOffset {
			t.Fatalf("server record %d: %v %#04x len %d at %d, trace has %v %#04x len %d at %d", i,
				r.Type, uint16(r.Version), r.Length, r.StreamOffset, w.Type, uint16(w.Version), w.Length, w.StreamOffset)
		}
		body := r.Body
		if r.Type == tlsrec.ContentChangeCipherSpec {
			if !bytes.Equal(body, []byte{1}) {
				t.Fatalf("server record %d: ChangeCipherSpec body % x", i, body)
			}
			continue
		}
		if j := slices.IndexFunc(body, func(b byte) bool { return b != 0 }); j >= 0 {
			t.Fatalf("server record %d: body byte %d is %#02x", i, j, body[j])
		}
	}
}

func TestPcapStreamsParseAsTLS(t *testing.T) {
	_, pcapBytes := captureTrace(t, 2)
	asm, clients := reassemble(t, pcapBytes)
	recs, rest, err := tlsrec.ParseStream(asm.Stream(clients[0]).Bytes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rest != 0 || len(recs) == 0 {
		t.Errorf("client records = %d, unparsed = %d", len(recs), rest)
	}
}

func TestPcapSegmentsRespectMSS(t *testing.T) {
	tr, pcapBytes := captureTrace(t, 3)
	r, err := pcapio.NewReader(bytes.NewReader(pcapBytes))
	if err != nil {
		t.Fatal(err)
	}
	mss := tr.Profile.MTU - 40
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		p, err := layers.DecodePacket(rec.Timestamp, rec.Data)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Payload) > mss {
			t.Fatalf("segment payload %d exceeds MSS %d", len(p.Payload), mss)
		}
		if len(rec.Data) > tr.Profile.MTU+14 { // + Ethernet header
			t.Fatalf("frame %d exceeds MTU", len(rec.Data))
		}
	}
}

func TestPcapTimestampsMonotone(t *testing.T) {
	_, pcapBytes := captureTrace(t, 4)
	r, err := pcapio.NewReader(bytes.NewReader(pcapBytes))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 10 {
		t.Fatalf("only %d packets captured", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Timestamp.Before(recs[i-1].Timestamp) {
			t.Fatalf("packet %d timestamp went backwards", i)
		}
	}
}

func TestPcapHasHandshakeAndFin(t *testing.T) {
	_, pcapBytes := captureTrace(t, 5)
	r, _ := pcapio.NewReader(bytes.NewReader(pcapBytes))
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	var syn, synAck, fin int
	for _, rec := range recs {
		p, err := layers.DecodePacket(rec.Timestamp, rec.Data)
		if err != nil {
			t.Fatal(err)
		}
		f := p.TCP.Flags
		switch {
		case f&layers.TCPSyn != 0 && f&layers.TCPAck == 0:
			syn++
		case f&layers.TCPSyn != 0 && f&layers.TCPAck != 0:
			synAck++
		case f&layers.TCPFin != 0:
			fin++
		}
	}
	if syn != 1 || synAck != 1 {
		t.Errorf("handshake: %d SYN, %d SYN+ACK", syn, synAck)
	}
	if fin != 2 {
		t.Errorf("teardown: %d FIN", fin)
	}
}

func TestWriteBoundariesAlignWithSegments(t *testing.T) {
	// Application write boundaries must start fresh TCP segments so that
	// per-record timestamps are recoverable: verify every client write
	// mark's offset coincides with a segment start in the capture.
	tr, pcapBytes := captureTrace(t, 6)
	asm, clients := reassemble(t, pcapBytes)
	startOffsets := map[int64]bool{}
	for _, ch := range asm.Stream(clients[0]).Chunks() {
		startOffsets[ch.StreamOffset] = true
	}
	for _, m := range tr.ClientToServer.Writes {
		if !startOffsets[m.Offset] {
			t.Errorf("write mark at offset %d does not start a TCP segment", m.Offset)
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	tr, _ := captureTrace(t, 7)
	var buf bytes.Buffer
	if err := WritePcap(&buf, tr, Options{MTU: 100}); err == nil {
		t.Error("tiny MTU accepted")
	}
}

func TestDeterministicCapture(t *testing.T) {
	_, a := captureTrace(t, 8)
	_, b := captureTrace(t, 8)
	if !bytes.Equal(a, b) {
		t.Error("captures differ across identical seeds")
	}
}

// TestWritePcapGrowsBufferToFileSize: a bytes.Buffer destination is grown
// once to the exact file size, so the capture leaves no more slack than
// the runtime's page rounding of a large allocation (8 KiB) — a buffer
// doubled up from zero would leave up to half its capacity unused.
func TestWritePcapGrowsBufferToFileSize(t *testing.T) {
	tr, _ := captureTrace(t, 9)
	var buf bytes.Buffer
	if err := WritePcap(&buf, tr, Options{Seed: 9}); err != nil {
		t.Fatal(err)
	}
	if slack := buf.Cap() - buf.Len(); slack >= 8<<10 {
		t.Errorf("%d-byte capture left %d bytes of buffer slack", buf.Len(), slack)
	}
}

// TestWritePcapMultiInterleavesFlows renders the interleaved scenario and
// checks every conversation — the interactive one plus each noise flow —
// survives the round trip as a complete, TLS-parsable TCP conversation,
// with the interactive client stream byte-intact among the noise.
func TestWritePcapMultiInterleavesFlows(t *testing.T) {
	tr, _ := captureTrace(t, 3)
	const noise = 3
	var buf bytes.Buffer
	if err := WritePcapMulti(&buf, tr, MultiOptions{
		Options: Options{Seed: 3}, NoiseFlows: noise,
	}); err != nil {
		t.Fatal(err)
	}
	asm, clients := reassemble(t, buf.Bytes())
	if len(clients) != noise+1 {
		t.Fatalf("conversations = %d, want %d", len(clients), noise+1)
	}
	ep := DefaultEndpoints()
	foundInteractive := false
	for _, k := range clients {
		c2s := asm.Stream(k)
		if c2s == nil || asm.Stream(k.Reverse()) == nil {
			t.Fatal("conversation not fully captured")
		}
		if _, _, err := tlsrec.ParseStream(c2s.Bytes(), nil); err != nil {
			t.Fatalf("client stream of %v not TLS: %v", k, err)
		}
		if k.SrcPort == ep.ClientPort {
			foundInteractive = true
			if !bytes.Equal(c2s.Bytes(), tr.ClientToServer.Bytes) {
				t.Error("interactive client stream corrupted by interleaving")
			}
		}
	}
	if !foundInteractive {
		t.Fatal("interactive conversation missing from multi-flow capture")
	}
}

// TestWritePcapMultiDeterministic pins seeded reproducibility.
func TestWritePcapMultiDeterministic(t *testing.T) {
	tr, _ := captureTrace(t, 4)
	render := func() []byte {
		var buf bytes.Buffer
		if err := WritePcapMulti(&buf, tr, MultiOptions{
			Options: Options{Seed: 9}, NoiseFlows: 2,
		}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(render(), render()) {
		t.Error("WritePcapMulti not deterministic for equal options")
	}
}

package capture

import (
	"bytes"
	"io"
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

// reassemble parses a pcap back into per-direction streams.
func reassemble(t *testing.T, pcapBytes []byte) *tcpreasm.Assembler {
	t.Helper()
	r, err := pcapio.NewReader(bytes.NewReader(pcapBytes))
	if err != nil {
		t.Fatal(err)
	}
	asm := tcpreasm.NewAssembler()
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
		asm.Feed(p)
	}
	return asm
}

func TestPcapRoundTripsClientStream(t *testing.T) {
	tr, pcapBytes := captureTrace(t, 1)
	asm := reassemble(t, pcapBytes)
	convs := asm.Conversations()
	if len(convs) != 1 {
		t.Fatalf("conversations = %d", len(convs))
	}
	c := convs[0]
	if c.ClientToServer == nil || c.ServerToClient == nil {
		t.Fatal("conversation not fully captured")
	}
	if !bytes.Equal(c.ClientToServer.Bytes(), tr.ClientToServer.Bytes) {
		t.Errorf("client stream mismatch: got %d bytes, want %d",
			len(c.ClientToServer.Bytes()), len(tr.ClientToServer.Bytes))
	}
	if !bytes.Equal(c.ServerToClient.Bytes(), tr.ServerToClient.Bytes) {
		t.Errorf("server stream mismatch: got %d bytes, want %d",
			len(c.ServerToClient.Bytes()), len(tr.ServerToClient.Bytes))
	}
}

func TestPcapStreamsParseAsTLS(t *testing.T) {
	_, pcapBytes := captureTrace(t, 2)
	asm := reassemble(t, pcapBytes)
	c := asm.Conversations()[0]
	recs, rest, err := tlsrec.ParseStream(c.ClientToServer.Bytes(), nil)
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
	asm := reassemble(t, pcapBytes)
	c := asm.Conversations()[0]
	startOffsets := map[int64]bool{}
	for _, ch := range c.ClientToServer.Chunks() {
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
	asm := reassemble(t, buf.Bytes())
	convs := asm.Conversations()
	if len(convs) != noise+1 {
		t.Fatalf("conversations = %d, want %d", len(convs), noise+1)
	}
	ep := DefaultEndpoints()
	foundInteractive := false
	for _, c := range convs {
		if c.ClientToServer == nil || c.ServerToClient == nil {
			t.Fatal("conversation not fully captured")
		}
		if _, _, err := tlsrec.ParseStream(c.ClientToServer.Bytes(), nil); err != nil {
			t.Fatalf("client stream of %v not TLS: %v", c.ClientToServer.Key, err)
		}
		if c.ClientToServer.Key.SrcPort == ep.ClientPort {
			foundInteractive = true
			if !bytes.Equal(c.ClientToServer.Bytes(), tr.ClientToServer.Bytes) {
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

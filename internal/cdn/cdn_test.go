package cdn

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"testing"

	"repro/internal/media"
	"repro/internal/profiles"
	"repro/internal/script"
	"repro/internal/statejson"
	"repro/internal/wire"
)

func testServer(t *testing.T) *Server {
	t.Helper()
	g := script.Bandersnatch()
	return New(g, media.Encode(g, media.DefaultLadder, 3))
}

func TestChunkResponseSize(t *testing.T) {
	s := testServer(t)
	chunks, err := s.Encoding.Chunks("S0", 1)
	if err != nil {
		t.Fatal(err)
	}
	got := s.ChunkResponseSize(chunks[0])
	if got != chunks[0].Size+ResponseOverhead {
		t.Errorf("response size = %d", got)
	}
}

func TestHandleReportType1(t *testing.T) {
	s := testServer(t)
	b := statejson.NewBuilder(profiles.Lookup(profiles.Fig2Ubuntu), "m", "sess", wire.NewRNG(1))
	body, _, err := b.Type1("S0", 1000)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.HandleReport(body)
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind != statejson.Type1 || r.ChoicePoint != "S0" {
		t.Errorf("report = %+v", r)
	}
	if got := s.Reports(); len(got) != 1 {
		t.Errorf("stored reports = %d", len(got))
	}
}

func TestHandleReportType2Validation(t *testing.T) {
	s := testServer(t)
	b := statejson.NewBuilder(profiles.Lookup(profiles.Fig2Ubuntu), "m", "sess", wire.NewRNG(1))

	// Valid: S0's alternative is S1b.
	body, _, err := b.Type2("S0", "S1b", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.HandleReport(body); err != nil {
		t.Errorf("valid type-2 rejected: %v", err)
	}

	// Invalid: S1 is not the alternative at S0.
	body, _, err = b.Type2("S0", "S1", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.HandleReport(body); err == nil {
		t.Error("selection of the default via type-2 accepted")
	}

	// Invalid: S1 is not a choice point at all.
	body, _, err = b.Type2("S1", "S2", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.HandleReport(body); err == nil {
		t.Error("type-2 at a non-choice segment accepted")
	}
}

// TestAcceptMatchesHandleReport: a size-only report passes or fails
// Accept exactly as its minted document passes or fails HandleReport,
// with the same error, and each accepted report is retained.
func TestAcceptMatchesHandleReport(t *testing.T) {
	p := profiles.Lookup(profiles.Fig2Ubuntu)
	minted, sized := testServer(t), testServer(t)
	mint := statejson.NewBuilder(p, "m", "sess", wire.NewRNG(3))
	size := statejson.NewBuilder(p, "m", "sess", wire.NewRNG(3))
	for _, c := range []struct{ cp, sel script.SegmentID }{
		{"S0", ""}, {"S0", "S1b"}, {"S0", "S1"}, {"S1", "S2"},
	} {
		var body []byte
		var r statejson.Report
		var err error
		if c.sel == "" {
			body, _, err = mint.Type1(c.cp, 1000)
			_, r, _ = size.Type1Size(c.cp, 1000)
		} else {
			body, _, err = mint.Type2(c.cp, c.sel, 1000)
			_, r, _ = size.Type2Size(c.cp, c.sel, 1000)
		}
		if err != nil {
			t.Fatal(err)
		}
		_, herr := minted.HandleReport(body)
		if aerr := sized.Accept(r); fmt.Sprint(aerr) != fmt.Sprint(herr) {
			t.Errorf("%s/%s: Accept error %v, HandleReport error %v", c.cp, c.sel, aerr, herr)
		}
	}
	if a, h := len(sized.Reports()), len(minted.Reports()); a != 2 || h != 2 {
		t.Errorf("retained %d accepted and %d handled reports, want 2 each", a, h)
	}
}

func TestHandleReportGarbage(t *testing.T) {
	s := testServer(t)
	if _, err := s.HandleReport([]byte("junk")); err == nil {
		t.Error("garbage report accepted")
	}
}

// sockRequest writes one socket-protocol request and reads the response.
func sockRequest(t *testing.T, rw *bufio.ReadWriter, kind byte, body []byte) []byte {
	t.Helper()
	var lenBuf [4]byte
	if err := rw.WriteByte(kind); err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(body)))
	rw.Write(lenBuf[:])
	rw.Write(body)
	if err := rw.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(rw, lenBuf[:]); err != nil {
		t.Fatal(err)
	}
	resp := make([]byte, binary.BigEndian.Uint32(lenBuf[:]))
	if _, err := io.ReadFull(rw, resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestServeSocketProtocol(t *testing.T) {
	s := testServer(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go s.Serve(l)

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rw := bufio.NewReadWriter(bufio.NewReader(conn), bufio.NewWriter(conn))

	// Chunk request.
	req, _ := json.Marshal(map[string]any{"segment": "S0", "index": 0, "quality": 1})
	resp := sockRequest(t, rw, SockChunk, req)
	chunks, _ := s.Encoding.Chunks("S0", 1)
	if len(resp) != s.ChunkResponseSize(chunks[0]) {
		t.Errorf("chunk response %d bytes, want %d", len(resp), s.ChunkResponseSize(chunks[0]))
	}

	// State report.
	b := statejson.NewBuilder(profiles.Lookup(profiles.Fig2Ubuntu), "m", "sock-sess", wire.NewRNG(2))
	body, _, err := b.Type1("S2", 5000)
	if err != nil {
		t.Fatal(err)
	}
	resp = sockRequest(t, rw, SockReport, body)
	if string(resp) != `{"ok":1}` {
		t.Errorf("report response = %q", resp)
	}
	if got := s.Reports(); len(got) != 1 || got[0].SessionID != "sock-sess" {
		t.Errorf("reports = %+v", got)
	}
}

func TestServeRejectsBadChunkIndex(t *testing.T) {
	s := testServer(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go s.Serve(l)

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rw := bufio.NewReadWriter(bufio.NewReader(conn), bufio.NewWriter(conn))

	req, _ := json.Marshal(map[string]any{"segment": "S0", "index": 9999, "quality": 1})
	var lenBuf [4]byte
	rw.WriteByte(SockChunk)
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(req)))
	rw.Write(lenBuf[:])
	rw.Write(req)
	rw.Flush()
	// The server drops the connection on protocol errors.
	if _, err := io.ReadFull(rw, lenBuf[:]); err == nil {
		t.Error("expected connection close on bad index")
	}
}

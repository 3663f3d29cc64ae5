// Package cdn models the streaming service's server side: it owns the
// encoded title, answers chunk requests with response sizes (media bytes
// plus HTTP response framing) and ingests interactive state reports. The
// session simulator drives it in virtual time; a socket mode (Serve) runs
// the same logic over real TCP connections for the live-capture example.
package cdn

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/media"
	"repro/internal/script"
	"repro/internal/statejson"
)

// ResponseOverhead is the HTTP response framing added to each chunk
// (status line, headers, frame headers).
const ResponseOverhead = 310

// Server is the origin for one title.
type Server struct {
	Graph    *script.Graph
	Encoding *media.Encoding

	mu      sync.Mutex
	reports []statejson.Report
}

// New returns a Server for a title.
func New(g *script.Graph, e *media.Encoding) *Server {
	return &Server{Graph: g, Encoding: e}
}

// ChunkResponseSize returns the bytes the server sends for one chunk
// request: the media payload plus response framing.
func (s *Server) ChunkResponseSize(c media.Chunk) int {
	return c.Size + ResponseOverhead
}

// HandleReport ingests one state-report body as it arrives on the
// socket protocol: it parses the JSON document (statejson.Parse) and
// hands the report to Accept, returning it on success. The session
// simulator never builds report documents, so it calls Accept directly.
func (s *Server) HandleReport(body []byte) (statejson.Report, error) {
	r, err := statejson.Parse(body)
	if err != nil {
		return statejson.Report{}, fmt.Errorf("cdn: %w", err)
	}
	if err := s.Accept(r); err != nil {
		return statejson.Report{}, err
	}
	return r, nil
}

// Accept ingests one state report, mirroring what the real service
// records: a type-2 report must name a choice point and select its
// alternative, and an accepted report is retained for ground-truth
// cross-checks (Reports). The report's State blob is not read, so a
// report from statejson's size-only forms, whose State is empty, is
// accepted exactly as its minted document would be.
func (s *Server) Accept(r statejson.Report) error {
	// A type-2 selection must name a real segment that is an alternative
	// of the named choice point — the server-side sanity check Netflix
	// would apply.
	if r.Kind == statejson.Type2 {
		seg, ok := s.Graph.Segment(script.SegmentID(r.ChoicePoint))
		if !ok || seg.Choice == nil {
			return fmt.Errorf("cdn: type-2 report names non-choice segment %q", r.ChoicePoint)
		}
		if script.SegmentID(r.Selection) != seg.Choice.Alternative {
			return fmt.Errorf("cdn: type-2 selection %q is not the alternative of %q",
				r.Selection, r.ChoicePoint)
		}
	}
	s.mu.Lock()
	s.reports = append(s.reports, r)
	s.mu.Unlock()
	return nil
}

// Reports returns the ingested state reports in arrival order.
func (s *Server) Reports() []statejson.Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]statejson.Report(nil), s.reports...)
}

// --- Socket mode -----------------------------------------------------------
//
// The live example speaks a tiny length-prefixed protocol over a real TLS
// connection:
//
//	request  := u8 kind | u32 length | body
//	response := u32 length | body
//
// kind 1 = chunk request (body names "segment/index/quality"),
// kind 2 = state report (body is the JSON document, response is `{"ok":1}`).

// Request kinds on the socket protocol.
const (
	SockChunk  = 1
	SockReport = 2
)

// Serve accepts connections on l and answers the socket protocol until l
// closes. Each connection is handled on its own goroutine; Serve returns
// after the listener fails (normally because it was closed).
func (s *Server) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	for {
		if err := s.serveOne(r, w); err != nil {
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

func (s *Server) serveOne(r *bufio.Reader, w *bufio.Writer) error {
	kind, err := r.ReadByte()
	if err != nil {
		return err
	}
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n > 1<<20 {
		return fmt.Errorf("cdn: oversized request %d", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return err
	}

	var resp []byte
	switch kind {
	case SockChunk:
		var req struct {
			Segment string `json:"segment"`
			Index   int    `json:"index"`
			Quality int    `json:"quality"`
		}
		if err := json.Unmarshal(body, &req); err != nil {
			return fmt.Errorf("cdn: bad chunk request: %w", err)
		}
		chunks, err := s.Encoding.Chunks(script.SegmentID(req.Segment), req.Quality)
		if err != nil {
			return err
		}
		if req.Index < 0 || req.Index >= len(chunks) {
			return fmt.Errorf("cdn: chunk index %d out of range", req.Index)
		}
		resp = make([]byte, s.ChunkResponseSize(chunks[req.Index]))
	case SockReport:
		if _, err := s.HandleReport(body); err != nil {
			return err
		}
		resp = []byte(`{"ok":1}`)
	default:
		return fmt.Errorf("cdn: unknown request kind %d", kind)
	}

	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(resp)))
	if _, err := w.Write(lenBuf[:]); err != nil {
		return err
	}
	_, err = w.Write(resp)
	return err
}

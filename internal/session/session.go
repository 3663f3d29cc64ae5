// Package session orchestrates one complete simulated viewing: a viewer
// with behavioural attributes watches the interactive title under an
// operational condition, the player exchanges chunk requests, state
// reports and media with the CDN across the emulated network, and both
// directions of the wire are recorded with per-write timestamps: the
// client's bytes, and the server's TLS records (or, over QUIC, its
// datagram bytes). The output Trace carries labeled ground truth (which
// client records are type-1/type-2 and which choices were made) so the
// attack's output can be scored.
package session

import (
	"fmt"
	"time"

	"repro/internal/abr"
	"repro/internal/cdn"
	"repro/internal/media"
	"repro/internal/netem"
	"repro/internal/player"
	"repro/internal/profiles"
	"repro/internal/quicrec"
	"repro/internal/script"
	"repro/internal/statejson"
	"repro/internal/tlsrec"
	"repro/internal/viewer"
	"repro/internal/wire"
)

// WriteLabel classifies one client-side TLS application write for ground
// truth.
type WriteLabel int

// Write labels.
const (
	LabelHandshake WriteLabel = iota
	LabelRequest
	LabelType1
	LabelType2
	LabelTelemetry
)

// String names the label.
func (l WriteLabel) String() string {
	switch l {
	case LabelHandshake:
		return "handshake"
	case LabelRequest:
		return "request"
	case LabelType1:
		return "type-1"
	case LabelType2:
		return "type-2"
	case LabelTelemetry:
		return "telemetry"
	default:
		return fmt.Sprintf("label(%d)", int(l))
	}
}

// LabeledWrite is one client application write and the wire units it
// produced: TLS records over TCP, QUIC datagrams over UDP. Exactly one of
// Records and Datagrams is populated, per the session's transport.
type LabeledWrite struct {
	Label   WriteLabel
	Time    time.Time
	Plain   int // plaintext bytes handed to TLS
	Records []tlsrec.Record
	// Datagrams is the write's UDP datagram burst (TransportQUIC only),
	// including any dummy datagrams a random-padding sizing policy added —
	// the burst-level ground truth the attack trains on.
	Datagrams []quicrec.Datagram
}

// DirStream is one direction's wire bytes plus the write schedule needed
// to timestamp TCP segments (or, for QUIC, the datagram boundaries needed
// to frame UDP packets).
type DirStream struct {
	// Bytes is the TLS record byte stream (TCP) or the concatenated QUIC
	// packet bytes (QUIC). It is nil for a TCP trace's server direction:
	// its record bodies are all zero, so Trace.ServerRecords describes it
	// and capture renders it from them.
	Bytes []byte
	// Writes gives (stream offset, time) checkpoints: bytes at or after
	// Offset were written at Time. Offsets are strictly increasing.
	Writes []WriteMark
	// Datagrams frames Bytes into UDP datagrams (TransportQUIC only; nil
	// for TCP). Each descriptor's Offset/Size addresses a contiguous span
	// of Bytes and its Time is the datagram's send instant — capture emits
	// exactly one UDP frame per entry. Includes handshake flights and
	// ack-only datagrams, in send order.
	Datagrams []quicrec.Datagram
}

// WriteMark timestamps a range of stream bytes.
type WriteMark struct {
	Offset int64
	Time   time.Time
}

// TimeAt resolves the write time covering stream offset off.
func (d *DirStream) TimeAt(off int64) time.Time {
	// Binary search for the last mark with Offset <= off.
	lo, hi := 0, len(d.Writes)
	for lo < hi {
		mid := (lo + hi) / 2
		if d.Writes[mid].Offset <= off {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		if len(d.Writes) > 0 {
			return d.Writes[0].Time
		}
		return time.Time{}
	}
	return d.Writes[lo-1].Time
}

// mark appends a write checkpoint.
func (d *DirStream) mark(off int64, t time.Time) {
	d.Writes = append(d.Writes, WriteMark{Offset: off, Time: t})
}

// Trace is the full observable output of one session plus ground truth.
type Trace struct {
	Viewer    viewer.Viewer
	Condition profiles.Condition
	Profile   profiles.Profile
	SessionID string
	// Transport records which wire transport the session spoke; the zero
	// value is TransportTCP (TLS records over TCP).
	Transport quicrec.Transport

	ClientToServer DirStream
	ServerToClient DirStream

	// ClientWrites is the labeled ground truth of every client
	// application write, in time order.
	ClientWrites []LabeledWrite
	// ServerRecords is the ground-truth record sequence of the server
	// direction of a TCP trace: each record's type, version, length,
	// stream offset and write time. It is the one description of that
	// direction's bytes, which are the records' headers, zero bodies and
	// ChangeCipherSpec's one-byte message (tlsrec.Record.WirePrefix);
	// parsing those bytes recovers exactly these records.
	ServerRecords []tlsrec.Record
	// Result is the player-level ground truth (path, choices, stalls).
	Result player.Result
}

// GroundTruthDecisions extracts the decision vector (true = default).
func (t *Trace) GroundTruthDecisions() []bool {
	return append([]bool(nil), t.Result.Path.Decisions...)
}

// Release drops the trace's wire data — both directions' byte streams,
// write schedules, datagram frames, the labeled client writes and the
// server records — so the memory (the client stream and a few hundred
// kilobytes of descriptors for a TCP session, tens of megabytes of
// server datagrams for a full-fidelity QUIC one) can be reclaimed the
// moment a consumer has serialized or scored the trace. The
// player-level ground truth (Result, GroundTruthDecisions) and the
// identity fields survive, which is exactly what corpus sidecar metadata
// needs after the pcap has been flushed. Streaming consumers
// (dataset.GenerateTo) call this per point to hold resident memory
// constant in corpus size; a released trace cannot be serialized again.
func (t *Trace) Release() {
	t.ClientToServer = DirStream{}
	t.ServerToClient = DirStream{}
	t.ClientWrites = nil
	t.ServerRecords = nil
}

// Config parameterizes a session run.
type Config struct {
	Graph     *script.Graph
	Encoding  *media.Encoding
	Viewer    viewer.Viewer
	Condition profiles.Condition
	SessionID string
	Seed      uint64
	// Controller overrides the default buffer-based ABR rule.
	Controller abr.Controller
	// TelemetryInterval spaces telemetry uploads (default 60s; negative
	// disables).
	TelemetryInterval time.Duration
	// DisablePrefetch turns off default-branch prefetching (ablation).
	DisablePrefetch bool
	// Start is the virtual session start (default a fixed epoch so runs
	// are reproducible).
	Start time.Time
	// OmitServerPayload skips materializing a QUIC session's server
	// datagram bytes (tens of megabytes of PRNG-filled media per session);
	// the trace still carries exact offsets, timings and datagram
	// descriptors. Profiling and experiment workloads that never serialize
	// the trace to pcap set this — it removes the dominant memory cost of
	// a QUIC session. A TCP session never materializes its server bytes
	// (ServerRecords describes them), so the option changes nothing there.
	OmitServerPayload bool
	// Wire is the stack both directions speak and the shaping policy in
	// force (zero: TLS 1.2 over TCP, unshaped). Run rejects a policy that
	// does not fit the stack.
	Wire Wire
}

// Run simulates one session.
func Run(cfg Config) (*Trace, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("session: config needs a graph")
	}
	if cfg.Encoding == nil {
		return nil, fmt.Errorf("session: config needs an encoding")
	}
	if cfg.SessionID == "" {
		cfg.SessionID = "session-1"
	}
	if err := cfg.Wire.validate(); err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	if cfg.Start.IsZero() {
		cfg.Start = time.Unix(1735689600, 0) // 2025-01-01T00:00:00Z epoch for traces
	}
	w := cfg.Wire
	prof := profiles.Lookup(cfg.Condition).ForVersion(w.Record).ForTransport(w.Transport)
	recVer := w.Record.WireVersion()
	rng := wire.NewRNG(cfg.Seed)

	// Stream buffers. The client direction is small, PRNG-filled and
	// always pooled; the trace keeps an exact-size copy. The server
	// direction carries tens of megabytes of media. Its TLS record bodies
	// are zero, so a TCP trace keeps only ServerRecords and a discard
	// Writer keeps their offsets exact. QUIC server datagrams are
	// PRNG-filled: a full-fidelity QUIC session borrows a pooled arena
	// and keeps a copy, a lean one discards them too.
	cBuf := wire.GetWriter(1 << 20)
	defer wire.PutWriter(cBuf)
	sBuf := wire.NewDiscardWriter()
	keepServer := w.Transport == quicrec.TransportQUIC && !cfg.OmitServerPayload
	if keepServer {
		sBuf = wire.GetWriter(20 << 20)
		defer wire.PutWriter(sBuf)
	}

	env := &simEnv{
		trace: &Trace{
			Viewer:    cfg.Viewer,
			Condition: cfg.Condition,
			Profile:   prof,
			SessionID: cfg.SessionID,
			Transport: w.Transport,
			// A typical walk meets ~50-150 labeled writes.
			ClientWrites: make([]LabeledWrite, 0, 96),
		},
		server:   cdn.New(cfg.Graph, cfg.Encoding),
		builder:  statejson.NewBuilder(prof, cfg.Graph.Title, cfg.SessionID, rng.Fork(1)),
		uplink:   netem.NewPath(prof.Net, rng.Fork(2)),
		downlink: netem.NewPath(prof.Net, rng.Fork(3)),
		cEnc:     tlsrec.NewEncryptor(prof.Suite, prof.Splitter, recVer, rng.Fork(4)),
		// The server direction carries megabytes of media; its bodies are
		// opaque to every analysis (only lengths and timing are used), so
		// they are zero-filled (nil rng) and ServerRecords alone
		// describes the stream.
		sEnc:    tlsrec.NewEncryptor(prof.Suite, prof.Splitter, recVer, nil),
		viewer:  cfg.Viewer,
		decider: rng.Fork(6),
		reports: w.Reports,
		cBuf:    cBuf,
		sBuf:    sBuf,
	}
	env.sEnc.Server = true
	if w.Record == tlsrec.RecordTLS13 {
		// Padding draws come from dedicated streams so the RNG consumption
		// of the session model itself is untouched by the policy.
		env.cEnc.SetPadding(w.Padding, rng.Fork(7))
		env.sEnc.SetPadding(w.Padding, rng.Fork(8))
	}
	if w.Transport == quicrec.TransportQUIC {
		// QUIC endpoints draw from forks 9 and 10, past every label the
		// TCP path consumes, so adding the transport cannot perturb any
		// existing seeded stream.
		env.transport = quicrec.TransportQUIC
		env.cQ = quicrec.NewConn(quicrec.Params{Sizing: w.Sizing}, false, rng.Fork(9))
		env.sQ = quicrec.NewConn(quicrec.Params{Sizing: w.Sizing}, true, rng.Fork(10))
	}

	// TLS handshake opens the connection.
	env.handshake(cfg.Start, prof.ClientHelloLen)

	controller := cfg.Controller
	if controller == nil {
		controller = &abr.BufferRule{Ladder: cfg.Encoding.Ladder}
	}
	telemetry := cfg.TelemetryInterval
	if telemetry == 0 {
		telemetry = 60 * time.Second
	}
	if telemetry < 0 {
		telemetry = 0
	}

	res, err := player.Play(player.Config{
		Graph:             cfg.Graph,
		Encoding:          cfg.Encoding,
		Control:           controller,
		TelemetryInterval: telemetry,
		Prefetch:          !cfg.DisablePrefetch,
		Start:             cfg.Start.Add(200 * time.Millisecond), // after handshake
	}, env)
	if err != nil {
		return nil, err
	}
	env.trace.Result = res
	env.trace.ClientToServer.Bytes = env.cBuf.CopyBytes()
	if keepServer {
		env.trace.ServerToClient.Bytes = env.sBuf.CopyBytes()
	}
	return env.trace, nil
}

// simEnv implements player.Env against the CDN/netem/TLS models.
type simEnv struct {
	trace    *Trace
	server   *cdn.Server
	builder  *statejson.Builder
	uplink   *netem.Path
	downlink *netem.Path
	cEnc     *tlsrec.Encryptor
	sEnc     *tlsrec.Encryptor
	viewer   viewer.Viewer
	decider  *wire.RNG
	est      abr.ThroughputEstimator

	// reports is the state-report policy in force (TCP only); sizes is
	// the scratch list of plaintext sizes one shaped write goes out as.
	reports ReportPolicy
	sizes   []int

	// QUIC mode: when transport is TransportQUIC, cQ/sQ replace cEnc/sEnc
	// as the wire synthesizers and the encryptors go unused.
	transport quicrec.Transport
	cQ, sQ    *quicrec.Conn

	cBuf *wire.Writer
	sBuf *wire.Writer
}

// appendClientDGs back-computes stream offsets for datagrams just written
// to cBuf and records them in the client direction's frame schedule.
func (e *simEnv) appendClientDGs(dgs []quicrec.Datagram) []quicrec.Datagram {
	stampOffsets(dgs, int64(e.cBuf.Len()))
	e.trace.ClientToServer.Datagrams = append(e.trace.ClientToServer.Datagrams, dgs...)
	return dgs
}

// appendServerDGs is the server-direction counterpart. Descriptors are
// kept even in lean mode (a discard writer still advances Len), exactly
// as ServerRecords describes a TCP server direction.
func (e *simEnv) appendServerDGs(dgs []quicrec.Datagram) []quicrec.Datagram {
	stampOffsets(dgs, int64(e.sBuf.Len()))
	e.trace.ServerToClient.Datagrams = append(e.trace.ServerToClient.Datagrams, dgs...)
	return dgs
}

// stampOffsets assigns each datagram its stream offset, given the buffer
// length measured after the whole run was written.
func stampOffsets(dgs []quicrec.Datagram, end int64) {
	off := end
	for i := len(dgs) - 1; i >= 0; i-- {
		off -= int64(dgs[i].Size)
		dgs[i].Offset = off
	}
}

// clientAck emits one ack-only client datagram (never a labeled write).
func (e *simEnv) clientAck(t time.Time) {
	d := e.cQ.WriteAck(e.cBuf, t)
	e.appendClientDGs([]quicrec.Datagram{d})
}

// serverAck emits one ack-only server datagram.
func (e *simEnv) serverAck(t time.Time) {
	d := e.sQ.WriteAck(e.sBuf, t)
	e.appendServerDGs([]quicrec.Datagram{d})
}

// lerpTime spreads item i of n across [start, start+span].
func lerpTime(start time.Time, span time.Duration, i, n int) time.Time {
	if n <= 1 {
		return start.Add(span)
	}
	return start.Add(span * time.Duration(i+1) / time.Duration(n))
}

// handshake writes both directions' handshake transcripts.
func (e *simEnv) handshake(t time.Time, helloLen int) {
	if e.transport == quicrec.TransportQUIC {
		e.quicHandshake(t, helloLen)
		return
	}
	e.trace.ClientToServer.mark(int64(e.cBuf.Len()), t)
	recs := e.cEnc.HandshakeTranscript(e.cBuf, t, helloLen)
	e.trace.ClientWrites = append(e.trace.ClientWrites, LabeledWrite{
		Label: LabelHandshake, Time: t, Plain: helloLen, Records: recs,
	})
	// Server side: ServerHello+cert chain (~3700B), CCS, Finished.
	st := t.Add(e.downlink.RTT() / 2)
	e.trace.ServerToClient.mark(int64(e.sBuf.Len()), st)
	srecs := e.sEnc.HandshakeTranscript(e.sBuf, st, 3700)
	e.trace.ServerRecords = append(e.trace.ServerRecords, srecs...)
}

// quicHandshake exchanges both QUIC handshake flights: the client's
// padded Initial and the server's coalesced Initial+Handshake response.
// Long-header datagrams are the attack's cue to skip the handshake, the
// QUIC analogue of skipping records until ChangeCipherSpec.
func (e *simEnv) quicHandshake(t time.Time, helloLen int) {
	e.trace.ClientToServer.mark(int64(e.cBuf.Len()), t)
	dgs := e.appendClientDGs(e.cQ.HandshakeTranscript(e.cBuf, t, helloLen))
	e.trace.ClientWrites = append(e.trace.ClientWrites, LabeledWrite{
		Label: LabelHandshake, Time: t, Plain: helloLen, Datagrams: dgs,
	})
	st := t.Add(e.downlink.RTT() / 2)
	e.trace.ServerToClient.mark(int64(e.sBuf.Len()), st)
	e.appendServerDGs(e.sQ.HandshakeTranscript(e.sBuf, st, 3700))
	// Client acks the server flight; the connection is now 1-RTT.
	e.clientAck(st.Add(e.uplink.RTT() / 2))
}

// writeClient encrypts one client application write, shaped by the
// report policy in force.
func (e *simEnv) writeClient(t time.Time, label WriteLabel, plain int) {
	e.trace.ClientToServer.mark(int64(e.cBuf.Len()), t)
	if e.transport == quicrec.TransportQUIC {
		dgs := e.appendClientDGs(e.cQ.WriteApplicationData(e.cBuf, t, plain))
		e.trace.ClientWrites = append(e.trace.ClientWrites, LabeledWrite{
			Label: label, Time: t, Plain: plain, Datagrams: dgs,
		})
		// The server acks the flight half an RTT out.
		e.serverAck(t.Add(e.downlink.RTT() / 2))
		return
	}
	var recs []tlsrec.Record
	if e.reports.Mode == ReportsNone {
		recs = e.cEnc.WriteApplicationData(e.cBuf, t, plain)
	} else {
		e.sizes = e.reports.appendSizes(e.sizes[:0], label, plain)
		for _, n := range e.sizes {
			recs = append(recs, e.cEnc.WriteApplicationData(e.cBuf, t, n)...)
		}
	}
	e.trace.ClientWrites = append(e.trace.ClientWrites, LabeledWrite{
		Label: label, Time: t, Plain: plain, Records: recs,
	})
}

// FetchChunk implements player.Env: request upstream, response downstream.
func (e *simEnv) FetchChunk(now time.Time, c media.Chunk) time.Time {
	// Client request.
	reqBody := e.builder.RequestBody()
	reqArrive := e.uplink.Transfer(now, len(reqBody)+60) // + TCP/IP headers
	e.writeClient(now, LabelRequest, len(reqBody))

	// Server response: chunk bytes stream down the bottleneck link.
	respSize := e.server.ChunkResponseSize(c)
	respStart := reqArrive
	e.trace.ServerToClient.mark(int64(e.sBuf.Len()), respStart)
	if e.transport == quicrec.TransportQUIC {
		dgs := e.sQ.WriteApplicationData(e.sBuf, respStart, respSize)
		done := e.downlink.Transfer(respStart, respSize)
		// Datagram departures pace the bottleneck link: restamp the
		// synthesizer's nominal spacing across the transfer window.
		span := done.Sub(respStart)
		for i := range dgs {
			dgs[i].Time = lerpTime(respStart, span, i, len(dgs))
		}
		dgs = e.appendServerDGs(dgs)
		// The client acks roughly every tenth datagram of the download.
		for i := 9; i < len(dgs); i += 10 {
			e.clientAck(dgs[i].Time.Add(e.uplink.RTT() / 2))
		}
		e.est.Observe(respSize, done.Sub(now))
		return done
	}
	srecs := e.sEnc.WriteApplicationData(e.sBuf, respStart, respSize)
	e.trace.ServerRecords = append(e.trace.ServerRecords, srecs...)
	done := e.downlink.Transfer(respStart, respSize)
	e.est.Observe(respSize, done.Sub(now))
	return done
}

// SendReport implements player.Env for type-1/type-2/telemetry writes.
func (e *simEnv) SendReport(now time.Time, kind player.EventKind, cp, sel script.SegmentID, positionMs int64) {
	switch kind {
	case player.EventType1:
		body, _, err := e.builder.Type1(cp, positionMs)
		if err != nil {
			panic(fmt.Sprintf("session: type-1 synthesis: %v", err))
		}
		if _, err := e.server.HandleReport(body); err != nil {
			panic(fmt.Sprintf("session: server rejected type-1: %v", err))
		}
		e.writeClient(now, LabelType1, len(body))
		e.uplink.Transfer(now, len(body)+60)
	case player.EventType2:
		body, _, err := e.builder.Type2(cp, sel, positionMs)
		if err != nil {
			panic(fmt.Sprintf("session: type-2 synthesis: %v", err))
		}
		if _, err := e.server.HandleReport(body); err != nil {
			panic(fmt.Sprintf("session: server rejected type-2: %v", err))
		}
		e.writeClient(now, LabelType2, len(body))
		e.uplink.Transfer(now, len(body)+60)
	case player.EventTelemetry:
		body := e.builder.TelemetryBody()
		e.writeClient(now, LabelTelemetry, len(body))
		e.uplink.Transfer(now, len(body)+60)
	default:
		panic(fmt.Sprintf("session: unexpected report kind %v", kind))
	}
}

// Decide implements player.Env via the viewer behavioural model.
func (e *simEnv) Decide(c script.Choice) (bool, float64) {
	return viewer.Decide(e.viewer, c, e.decider)
}

// Throughput implements player.Env.
func (e *simEnv) Throughput() float64 {
	if t := e.est.Estimate(); t > 0 {
		return t
	}
	return e.uplink.Params.BandwidthBps
}

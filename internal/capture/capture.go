// Package capture materializes simulated traffic as a genuine libpcap
// file: each direction's TLS byte stream is cut into MTU-bounded TCP
// segments, wrapped in IPv4/Ethernet frames with a proper three-way
// handshake and FIN exchange, timestamped from the trace's write schedule,
// and interleaved in time order. The resulting file is indistinguishable
// in structure from a tcpdump capture of the same conversation, which is
// what the attack pipeline consumes.
//
// WritePcap renders one session's conversation. WritePcapMulti renders
// the interleaved scenario: the interactive session plus N seeded
// bulk-streaming noise flows sharing the capture, which is what an
// on-path eavesdropper actually sees on a household link.
//
// A render holds each frame's Ethernet, IP and transport headers, ~54
// bytes a frame, in one pooled arena. Client payloads and QUIC datagrams
// are written to the destination straight from the trace's streams, so
// none of their bytes is copied before the destination writer copies it.
// A TCP server direction has no bytes: its segments are rendered from
// Trace.ServerRecords, whose bodies are all zero. A segment inside record
// bodies takes its payload from one shared block of zeros and adds
// nothing to its checksum; a segment holding a record header, or
// ChangeCipherSpec's one-byte message, is rendered into the arena beside
// its headers.
package capture

import (
	"fmt"
	"io"
	"net/netip"
	"runtime"
	"slices"
	"time"

	"repro/internal/cdn"
	"repro/internal/layers"
	"repro/internal/netem"
	"repro/internal/pcapio"
	"repro/internal/quicrec"
	"repro/internal/session"
	"repro/internal/tlsrec"
	"repro/internal/wire"
)

// Endpoints fixes the addresses used in synthesized captures.
type Endpoints struct {
	ClientAddr netip.Addr
	ServerAddr netip.Addr
	ClientPort uint16
	ServerPort uint16
	ClientMAC  layers.MAC
	ServerMAC  layers.MAC
}

// DefaultEndpoints resemble a home viewer reaching a CDN edge over 443.
func DefaultEndpoints() Endpoints {
	return Endpoints{
		ClientAddr: netip.MustParseAddr("192.168.1.23"),
		ServerAddr: netip.MustParseAddr("198.51.100.7"),
		ClientPort: 51732,
		ServerPort: 443,
		ClientMAC:  layers.MAC{0x02, 0x42, 0xc0, 0xa8, 0x01, 0x17},
		ServerMAC:  layers.MAC{0x02, 0x42, 0xc6, 0x33, 0x64, 0x07},
	}
}

// noiseEndpoints derives distinct addresses for the i-th noise flow: the
// same household client reaching other CDN edges from other ephemeral
// ports. The derivation is relative to the session's endpoints so a
// long-run harness rendering many sessions with shifted client ports (a
// soak through one monitor) gets distinct noise 5-tuples per session; for
// the default endpoints it reproduces the historical 52000+i ports
// exactly.
func noiseEndpoints(base Endpoints, i int) Endpoints {
	ep := base
	ep.ClientPort = base.ClientPort + 268 + uint16(i)
	a := ep.ServerAddr.As4()
	a[3] += byte(10 + i)
	ep.ServerAddr = netip.AddrFrom4(a)
	ep.ServerMAC[5] += byte(10 + i)
	return ep
}

// Options tunes the synthesis.
type Options struct {
	Endpoints Endpoints
	// MTU bounds frame payloads (TCP MSS = MTU - 40). Zero uses 1500.
	MTU int
	// Seed drives small segmentation jitter (segments occasionally carry
	// less than a full MSS, as real stacks emit on flush boundaries).
	Seed uint64
	// TimeOffset shifts every frame's capture timestamp. A long-run
	// harness rendering back-to-back sessions uses it to lay them on one
	// continuous tap timeline; the attack is shift-invariant (all timing
	// evidence is relative to the session anchor).
	TimeOffset time.Duration
}

// MultiOptions tunes WritePcapMulti.
type MultiOptions struct {
	// Options applies to the interactive session's conversation.
	Options
	// NoiseFlows is the number of concurrent bulk-streaming flows mixed
	// into the capture.
	NoiseFlows int
	// Transport is the transport the noise flows speak. Unless
	// TransportSet marks it explicit, noise inherits the interactive
	// trace's transport — a QUIC household produces QUIC noise; set both
	// to mix transports on one tap. TCP noise always negotiates the
	// trace's own record generation, so a TLS 1.3 household produces
	// TLS 1.3 noise.
	Transport    quicrec.Transport
	TransportSet bool
}

// frame is one synthesized packet awaiting interleave. Its headers live
// in a shared arena (start/end offsets) so a capture costs one buffer, not
// one allocation per packet; its payload is a slice of the conversation's
// stream or of zeroBlock, written from there without a copy. A rendered
// server segment's payload follows its headers inside [start, end), and
// payload is nil.
type frame struct {
	ts         time.Time
	start, end int
	payload    []byte
}

// muxer accumulates every conversation's frame headers in one arena
// before the final time interleave. Renders take one from idleMuxers
// (newMuxer) and return it (release).
type muxer struct {
	arena        *wire.Writer
	frames       []frame
	seg          []byte // a rendered server segment, before it joins arena
	payloadBytes int    // summed over frames
	ipID         uint16
	shift        time.Duration // applied to every frame timestamp
}

// add serializes one payload-less TCP frame (handshake, FIN) into the
// arena.
func (m *muxer) add(ts time.Time, key layers.FlowKey, eth layers.Ethernet, tcp layers.TCP) error {
	start := m.arena.Len()
	if err := layers.AppendTCPHeaders(m.arena, key, eth, tcp, 0, 0, m.ipID); err != nil {
		return err
	}
	m.push(ts, start, nil)
	return nil
}

// zeroBlock is the payload of every server segment that lies inside
// record bodies. AppendTCPHeaders rejects a segment too long for its IP
// length field before the block is sliced, so every segment fits it.
var zeroBlock [0xffff]byte

// addSegment serializes the data segment carrying bytes [off, off+n) of
// s: a slice of its bytes, or, for a direction described by its records,
// zeroBlock or a copy rendered into the arena after its headers.
func (m *muxer) addSegment(ts time.Time, key layers.FlowKey, eth layers.Ethernet,
	tcp layers.TCP, s *tcpStream, off, n int) error {
	var payload []byte // nil stands for n zero bytes, which sum to 0
	if s.Bytes != nil {
		payload = s.Bytes[off : off+n]
	} else if recs := s.prefixed(off, n); len(recs) > 0 {
		// Zeros, with the record prefixes that fall in the segment.
		m.seg = slices.Grow(m.seg[:0], n)[:n]
		clear(m.seg)
		for _, r := range recs {
			pre, pn := r.WirePrefix()
			so := int(r.StreamOffset)
			copy(m.seg[max(so-off, 0):], pre[max(off-so, 0):pn])
		}
		payload = m.seg
	}
	start := m.arena.Len()
	if err := layers.AppendTCPHeaders(m.arena, key, eth, tcp, n, wire.AddChecksum(0, payload), m.ipID); err != nil {
		return err
	}
	switch {
	case payload == nil:
		m.push(ts, start, zeroBlock[:n])
	case s.Bytes == nil: // m.seg, which the next rendered segment reuses
		m.arena.Write(payload)
		m.push(ts, start, nil)
	default:
		m.push(ts, start, payload)
	}
	return nil
}

// addUDP serializes one UDP frame's headers into the arena.
func (m *muxer) addUDP(ts time.Time, key layers.FlowKey, eth layers.Ethernet, payload []byte) error {
	start := m.arena.Len()
	if err := layers.AppendUDPHeaders(m.arena, key, eth, payload, m.ipID); err != nil {
		return err
	}
	m.push(ts, start, payload)
	return nil
}

// push records the frame whose headers were just appended from start.
func (m *muxer) push(ts time.Time, start int, payload []byte) {
	m.ipID++
	m.payloadBytes += len(payload)
	m.frames = append(m.frames, frame{ts: ts.Add(m.shift), start: start, end: m.arena.Len(),
		payload: payload})
}

// writeTo interleaves all frames by timestamp, stable on insertion order
// within a tie so a direction's segments stay ordered, and emits the pcap
// file. A destination that can grow, such as a bytes.Buffer, is grown
// once to the exact file size first, instead of doubling its way up
// through the multi-megabyte capture.
func (m *muxer) writeTo(w io.Writer) error {
	slices.SortStableFunc(m.frames, func(a, b frame) int { return a.ts.Compare(b.ts) })
	if g, ok := w.(interface{ Grow(n int) }); ok {
		// The frames' headers tile the arena, so the file is the 24-byte
		// pcap header, a 16-byte record header per frame, the arena and
		// the payloads.
		g.Grow(24 + 16*len(m.frames) + m.arena.Len() + m.payloadBytes)
	}
	pw := pcapio.NewWriter(w)
	raw := m.arena.Bytes()
	for _, f := range m.frames {
		if err := pw.WritePacketParts(f.ts, raw[f.start:f.end], f.payload); err != nil {
			return err
		}
	}
	return nil
}

// addConversation synthesizes one full conversation into the muxer. A
// direction carrying datagram descriptors renders as a QUIC/UDP exchange
// (one frame per datagram, no TCP ceremony); otherwise each direction is
// cut into TCP segments with a three-way handshake, both directions' data
// segments and a FIN exchange. The client direction is cut from its
// bytes; the server direction from its bytes if it has them, else from
// svRecs. finAt is when the FIN exchange starts.
func (m *muxer) addConversation(cl, sv session.DirStream, svRecs []tlsrec.Record, ep Endpoints,
	mtu int, finAt time.Time, rng *wire.RNG) error {
	if cl.Datagrams != nil {
		return m.addQUICConversation(cl, sv, ep)
	}
	if mtu < 576 {
		return fmt.Errorf("capture: MTU %d too small", mtu)
	}
	mss := mtu - 40 // IPv4 + TCP headers

	c2s := layers.FlowKey{SrcAddr: ep.ClientAddr, DstAddr: ep.ServerAddr,
		SrcPort: ep.ClientPort, DstPort: ep.ServerPort}
	s2c := c2s.Reverse()
	cEth := layers.Ethernet{Src: ep.ClientMAC, Dst: ep.ServerMAC}
	sEth := layers.Ethernet{Src: ep.ServerMAC, Dst: ep.ClientMAC}

	start := streamStart(cl)
	cISN, sISN := uint32(rng.Uint64()), uint32(rng.Uint64())

	// Three-way handshake slightly before the first TLS byte.
	hs := start.Add(-30 * time.Millisecond)
	if err := m.add(hs, c2s, cEth,
		layers.TCP{Seq: cISN, Flags: layers.TCPSyn, Window: 64240}); err != nil {
		return err
	}
	if err := m.add(hs.Add(10*time.Millisecond), s2c, sEth,
		layers.TCP{Seq: sISN, Ack: cISN + 1, Flags: layers.TCPSyn | layers.TCPAck, Window: 65160}); err != nil {
		return err
	}
	if err := m.add(hs.Add(20*time.Millisecond), c2s, cEth,
		layers.TCP{Seq: cISN + 1, Ack: sISN + 1, Flags: layers.TCPAck, Window: 64240}); err != nil {
		return err
	}

	// Data segments for each direction.
	cEnd, err := m.segmentDirection(&tcpStream{DirStream: cl}, c2s, cEth, cISN+1, sISN+1, mss, rng)
	if err != nil {
		return err
	}
	sEnd, err := m.segmentDirection(&tcpStream{DirStream: sv, recs: svRecs}, s2c, sEth, sISN+1, cISN+1, mss, rng)
	if err != nil {
		return err
	}

	// FIN exchange after the last data in either direction.
	fin := finAt.Add(50 * time.Millisecond)
	if err := m.add(fin, c2s, cEth,
		layers.TCP{Seq: cEnd, Ack: sEnd, Flags: layers.TCPFin | layers.TCPAck, Window: 64240}); err != nil {
		return err
	}
	return m.add(fin.Add(12*time.Millisecond), s2c, sEth,
		layers.TCP{Seq: sEnd, Ack: cEnd + 1, Flags: layers.TCPFin | layers.TCPAck, Window: 65160})
}

// addQUICConversation renders a QUIC conversation: exactly one UDP frame
// per datagram descriptor in each direction, timestamped from the
// descriptor itself. QUIC has no transport-layer ceremony on the wire —
// connection open and close are themselves encrypted datagrams.
func (m *muxer) addQUICConversation(cl, sv session.DirStream, ep Endpoints) error {
	c2s := layers.FlowKey{SrcAddr: ep.ClientAddr, DstAddr: ep.ServerAddr,
		SrcPort: ep.ClientPort, DstPort: ep.ServerPort, Proto: layers.IPProtocolUDP}
	s2c := c2s.Reverse()
	cEth := layers.Ethernet{Src: ep.ClientMAC, Dst: ep.ServerMAC}
	sEth := layers.Ethernet{Src: ep.ServerMAC, Dst: ep.ClientMAC}
	if err := m.datagramDirection(cl, c2s, cEth); err != nil {
		return err
	}
	return m.datagramDirection(sv, s2c, sEth)
}

// datagramDirection emits one direction's datagrams as UDP frames.
func (m *muxer) datagramDirection(d session.DirStream, key layers.FlowKey, eth layers.Ethernet) error {
	for _, dg := range d.Datagrams {
		end := dg.Offset + int64(dg.Size)
		if dg.Offset < 0 || end > int64(len(d.Bytes)) {
			return fmt.Errorf("capture: datagram [%d,%d) outside %d-byte stream",
				dg.Offset, end, len(d.Bytes))
		}
		if err := m.addUDP(dg.Time, key, eth, d.Bytes[dg.Offset:end]); err != nil {
			return err
		}
	}
	return nil
}

// withDefaults resolves the zero values against a trace.
func (o Options) withDefaults(tr *session.Trace) Options {
	if o.MTU == 0 {
		o.MTU = tr.Profile.MTU
	}
	if o.MTU == 0 {
		o.MTU = 1500
	}
	var zero Endpoints
	if o.Endpoints == zero {
		o.Endpoints = DefaultEndpoints()
	}
	return o
}

// arenaFor sizes the frame list and the shared frame arena for the given
// stream volume. Frames: a segment per MSS of stream, 1/32 more for the
// segments jitter cuts short, one more per write mark. Arena: ~54 header
// bytes a frame, plus a rendered segment of up to an MTU for each server
// record, whose header lands in one (no more than the stream in all).
func arenaFor(streamBytes, writes, records, mtu int) (*wire.Writer, int) {
	// A TCP render refuses an MTU below 576 and a QUIC one ignores the
	// MTU, so the clamp only keeps the estimate sane until then.
	segs := streamBytes / (max(mtu, 576) - 40)
	frameEstimate := segs + segs/32 + writes + 16
	return wire.GetWriter(64*frameEstimate + min(records*mtu, streamBytes)), frameEstimate
}

// idleMuxers keeps muxers between renders, so a render reuses an earlier
// render's frame list (~64 bytes a frame, about 0.5 MiB for one session's
// capture) and segment scratch, as it reuses a header arena from wire's
// pool. It keeps one muxer per CPU, no more than renders can run at once:
// a sync.Pool's per-CPU slots and victim cache kept several idle lists
// alive across each collection, which raised a two-worker corpus run's
// peak live heap by 1-2 MiB.
var idleMuxers = make(chan *muxer, runtime.GOMAXPROCS(0))

// maxIdleFrames bounds the frame list an idle muxer keeps (8 MiB of
// frames; a session's capture needs about 16k).
const maxIdleFrames = 1 << 17

// newMuxer returns an empty muxer sized for the given stream volume (see
// arenaFor): an idle one if there is one, and its arena from wire's pool.
// Pair with release.
func newMuxer(streamBytes, writes, records int, opts Options) *muxer {
	arena, frameEstimate := arenaFor(streamBytes, writes, records, opts.MTU)
	var m *muxer
	select {
	case m = <-idleMuxers:
	default:
		m = new(muxer)
	}
	*m = muxer{arena: arena, frames: slices.Grow(m.frames[:0], frameEstimate), seg: m.seg,
		ipID: 1, shift: opts.TimeOffset}
	return m
}

// release returns m's arena to wire's pool and keeps m for the next
// render when a slot is free. The frame list is cleared first, so an idle
// muxer pins no trace's payloads.
func (m *muxer) release() {
	wire.PutWriter(m.arena)
	clear(m.frames)
	frames := m.frames[:0]
	if cap(frames) > maxIdleFrames {
		frames = nil
	}
	*m = muxer{frames: frames, seg: m.seg}
	select {
	case idleMuxers <- m:
	default:
	}
}

// WritePcap renders tr as a pcap stream into w. It refuses a trace with
// no client bytes (see checkClientBytes).
func WritePcap(w io.Writer, tr *session.Trace, opts Options) error {
	if err := checkClientBytes(tr); err != nil {
		return err
	}
	opts = opts.withDefaults(tr)
	m := newMuxer(streamLen(tr.ClientToServer, nil)+streamLen(tr.ServerToClient, tr.ServerRecords),
		len(tr.ClientToServer.Writes)+len(tr.ServerToClient.Writes)+
			len(tr.ClientToServer.Datagrams)+len(tr.ServerToClient.Datagrams),
		len(tr.ServerRecords), opts)
	defer m.release()
	rng := wire.NewRNG(opts.Seed + 0x9e37)
	if err := m.addConversation(tr.ClientToServer, tr.ServerToClient, tr.ServerRecords,
		opts.Endpoints, opts.MTU, tr.Result.EndedAt, rng); err != nil {
		return err
	}
	return m.writeTo(w)
}

// WritePcapMulti renders the interleaved scenario: tr's conversation plus
// opts.NoiseFlows concurrent bulk-streaming flows spanning the same
// capture window, all interleaved in time order. Noise flows are seeded
// off opts.Seed, so equal options reproduce byte-identical captures. Like
// WritePcap, it refuses a trace with no client bytes.
func WritePcapMulti(w io.Writer, tr *session.Trace, opts MultiOptions) error {
	if err := checkClientBytes(tr); err != nil {
		return err
	}
	opts.Options = opts.Options.withDefaults(tr)
	start := streamStart(tr.ClientToServer)
	end := tr.Result.EndedAt

	recVer := tr.Profile.RecordVersion()
	transport := opts.Transport
	if !opts.TransportSet {
		transport = tr.Transport
	}

	// Synthesize the noise flows first so the arena can be sized for the
	// whole capture.
	noise := make([]noiseFlow, opts.NoiseFlows)
	streamBytes := streamLen(tr.ClientToServer, nil) + streamLen(tr.ServerToClient, tr.ServerRecords)
	writes := len(tr.ClientToServer.Writes) + len(tr.ServerToClient.Writes) +
		len(tr.ClientToServer.Datagrams) + len(tr.ServerToClient.Datagrams)
	records := len(tr.ServerRecords)
	for i := range noise {
		seed := opts.Seed ^ uint64(0xbeef+i*7919)
		if transport == quicrec.TransportQUIC {
			noise[i] = synthNoiseFlowQUIC(seed, start, end)
		} else {
			noise[i] = synthNoiseFlow(seed, start, end, recVer)
		}
		streamBytes += streamLen(noise[i].client, nil) + streamLen(noise[i].server, noise[i].serverRecs)
		writes += len(noise[i].client.Writes) + len(noise[i].server.Writes) +
			len(noise[i].client.Datagrams) + len(noise[i].server.Datagrams)
		records += len(noise[i].serverRecs)
	}

	m := newMuxer(streamBytes, writes, records, opts.Options)
	defer m.release()
	rng := wire.NewRNG(opts.Seed + 0x9e37)
	if err := m.addConversation(tr.ClientToServer, tr.ServerToClient, tr.ServerRecords,
		opts.Endpoints, opts.MTU, end, rng); err != nil {
		return err
	}
	for i := range noise {
		if err := m.addConversation(noise[i].client, noise[i].server, noise[i].serverRecs,
			noiseEndpoints(opts.Endpoints, i), opts.MTU, noise[i].endedAt, rng.Fork(uint64(i+1))); err != nil {
			return err
		}
	}
	return m.writeTo(w)
}

// checkClientBytes refuses a trace whose client direction has no bytes,
// under either transport: a lean session (session.Config.Lean) writes
// none and Trace.Release drops them, and a capture cannot be rendered
// from the descriptors alone.
func checkClientBytes(tr *session.Trace) error {
	if len(tr.ClientToServer.Bytes) == 0 {
		return fmt.Errorf("capture: trace %s has no client bytes (a lean or released trace); render a full trace", tr.SessionID)
	}
	return nil
}

// noiseFlow is one synthesized background conversation. A TCP flow's
// server direction is its records, as a session trace's is.
type noiseFlow struct {
	client, server session.DirStream
	serverRecs     []tlsrec.Record
	endedAt        time.Time
}

// synthNoiseFlow builds a bulk-streaming background flow covering
// [start, end]: a TLS handshake, then a request/response loop of small
// client messages answered by multi-hundred-kilobyte media responses
// paced by an emulated wired path — the traffic shape of a second
// (non-interactive) stream sharing the household link. Client requests
// occasionally fall inside a report-length band by accident, so finding
// the interactive flow takes more than spotting any in-band record. The
// flow speaks the requested record generation (a 1.3 tap carries 1.3
// noise), unpadded — padding is the defended client's knob, not the
// bystander's.
func synthNoiseFlow(seed uint64, start, end time.Time, ver tlsrec.RecordVersion) noiseFlow {
	rng := wire.NewRNG(seed)
	suite, recVer := tlsrec.SuiteAESGCM128TLS12, ver.WireVersion()
	if ver == tlsrec.RecordTLS13 {
		suite = tlsrec.Suite13Equivalent(suite)
	}
	cEnc := tlsrec.NewEncryptor(suite, tlsrec.DefaultSplitter, recVer, rng.Fork(1))
	sEnc := tlsrec.NewEncryptor(suite, tlsrec.DefaultSplitter, recVer, nil)
	sEnc.Server = true
	path := netem.NewPath(netem.Profile(netem.MediumWired, netem.TrafficMorning), rng.Fork(2))

	var f noiseFlow
	cBuf := wire.NewWriter(64 << 10)
	sBuf := wire.NewDiscardWriter() // keeps the server offsets exact

	// The flow opens within the first seconds of the capture window.
	t := start.Add(time.Duration(rng.IntRange(200, 4000)) * time.Millisecond)
	f.client.Writes = append(f.client.Writes, session.WriteMark{Offset: 0, Time: t})
	cEnc.HandshakeTranscript(cBuf, t, rng.IntRange(280, 560))
	st := t.Add(path.RTT() / 2)
	f.server.Writes = append(f.server.Writes, session.WriteMark{Offset: 0, Time: st})
	f.serverRecs = sEnc.HandshakeTranscript(sBuf, st, 3700)

	// The flow's client bytes are what a capture renders, so each
	// request's record descriptors only pass through one reused list.
	var reqRecs []tlsrec.Record
	for t.Before(end) {
		// Client request. Mostly ordinary sizes; occasionally one that
		// lands near the report bands (session tokens, beacons).
		req := rng.IntRange(180, 1400)
		if rng.Bool(0.08) {
			req = rng.IntRange(2000, 3300)
		}
		f.client.Writes = append(f.client.Writes,
			session.WriteMark{Offset: int64(cBuf.Len()), Time: t})
		reqRecs = cEnc.AppendApplicationData(reqRecs[:0], cBuf, t, req)

		// Server response: a media-sized chunk behind HTTP framing (sized
		// on the simulator's schematic media scale, so a noise flow's
		// volume is comparable to the interactive session's).
		respAt := path.Transfer(t, req+60)
		resp := rng.IntRange(30_000, 120_000) + cdn.ResponseOverhead
		f.server.Writes = append(f.server.Writes,
			session.WriteMark{Offset: int64(sBuf.Len()), Time: respAt})
		f.serverRecs = sEnc.AppendApplicationData(f.serverRecs, sBuf, respAt, resp)
		done := path.Transfer(respAt, resp)

		// Next request after the player drains some buffer.
		t = done.Add(time.Duration(rng.IntRange(3000, 9000)) * time.Millisecond)
	}
	f.client.Bytes = cBuf.Bytes()
	f.endedAt = t
	return f
}

// appendNoiseDGs back-fills stream offsets for datagrams just written to
// w and records them on the noise direction.
func appendNoiseDGs(d *session.DirStream, w *wire.Writer, dgs []quicrec.Datagram) {
	off := int64(w.Len())
	for i := len(dgs) - 1; i >= 0; i-- {
		off -= int64(dgs[i].Size)
		dgs[i].Offset = off
	}
	d.Datagrams = append(d.Datagrams, dgs...)
}

// synthNoiseFlowQUIC is synthNoiseFlow's QUIC twin: the same bulk
// request/response shape carried as QUIC datagrams — handshake flights,
// short-header data bursts, download acks. Its request bursts stray into
// the report bands with the same 8% probability, so QUIC noise exerts the
// same false-positive pressure on the burst classifier that TCP noise
// exerts on the record classifier.
func synthNoiseFlowQUIC(seed uint64, start, end time.Time) noiseFlow {
	rng := wire.NewRNG(seed)
	cQ := quicrec.NewConn(quicrec.Params{}, false, rng.Fork(1))
	sQ := quicrec.NewConn(quicrec.Params{}, true, rng.Fork(3))
	path := netem.NewPath(netem.Profile(netem.MediumWired, netem.TrafficMorning), rng.Fork(2))

	var f noiseFlow
	cBuf := wire.NewWriter(64 << 10)
	sBuf := wire.NewWriter(4 << 20)

	t := start.Add(time.Duration(rng.IntRange(200, 4000)) * time.Millisecond)
	f.client.Writes = append(f.client.Writes, session.WriteMark{Offset: 0, Time: t})
	appendNoiseDGs(&f.client, cBuf, cQ.HandshakeTranscript(cBuf, t, rng.IntRange(280, 560)))
	st := t.Add(path.RTT() / 2)
	f.server.Writes = append(f.server.Writes, session.WriteMark{Offset: 0, Time: st})
	appendNoiseDGs(&f.server, sBuf, sQ.HandshakeTranscript(sBuf, st, 3700))

	for t.Before(end) {
		req := rng.IntRange(180, 1400)
		if rng.Bool(0.08) {
			req = rng.IntRange(2000, 3300)
		}
		f.client.Writes = append(f.client.Writes,
			session.WriteMark{Offset: int64(cBuf.Len()), Time: t})
		appendNoiseDGs(&f.client, cBuf, cQ.WriteApplicationData(cBuf, t, req))

		respAt := path.Transfer(t, req+60)
		resp := rng.IntRange(30_000, 120_000) + cdn.ResponseOverhead
		f.server.Writes = append(f.server.Writes,
			session.WriteMark{Offset: int64(sBuf.Len()), Time: respAt})
		dgs := sQ.WriteApplicationData(sBuf, respAt, resp)
		done := path.Transfer(respAt, resp)
		span := done.Sub(respAt)
		for i := range dgs {
			dgs[i].Time = respAt.Add(span * time.Duration(i+1) / time.Duration(len(dgs)))
		}
		appendNoiseDGs(&f.server, sBuf, dgs)
		for i := 9; i < len(dgs); i += 10 {
			ack := cQ.WriteAck(cBuf, dgs[i].Time.Add(path.RTT()/2))
			appendNoiseDGs(&f.client, cBuf, []quicrec.Datagram{ack})
		}

		t = done.Add(time.Duration(rng.IntRange(3000, 9000)) * time.Millisecond)
	}
	f.client.Bytes = cBuf.Bytes()
	f.server.Bytes = sBuf.Bytes()
	f.endedAt = t
	return f
}

// tcpStream is one TCP direction's payload source. A direction with
// bytes (the client side, whose record bodies are PRNG noise) is cut
// from them. A direction without bytes (the server side) is described by
// recs: a server Encryptor zero-fills every body, so the stream is zero
// apart from each record's wire prefix (tlsrec.Record.WirePrefix).
type tcpStream struct {
	session.DirStream
	recs []tlsrec.Record
	next int // first record whose prefix may reach the next segment
}

// streamLen is a TCP direction's length in bytes: its bytes, or the span
// of recs when it has none.
func streamLen(d session.DirStream, recs []tlsrec.Record) int {
	if d.Bytes != nil || len(recs) == 0 {
		return len(d.Bytes)
	}
	last := recs[len(recs)-1]
	return int(last.StreamOffset) + last.WireLen()
}

// prefixed returns the records whose wire prefix overlaps the stream
// span [off, off+n). Segments are cut in stream order, so s.next skips
// the records whose prefix ends before off for good.
func (s *tcpStream) prefixed(off, n int) []tlsrec.Record {
	for ; s.next < len(s.recs); s.next++ {
		if _, pn := s.recs[s.next].WirePrefix(); int(s.recs[s.next].StreamOffset)+pn > off {
			break
		}
	}
	end := s.next
	for end < len(s.recs) && int(s.recs[end].StreamOffset) < off+n {
		end++
	}
	return s.recs[s.next:end]
}

// segmentDirection cuts one direction's stream into MSS-bounded segments
// timestamped from the write schedule. Returns the next sequence number
// after the stream.
func (m *muxer) segmentDirection(s *tcpStream, key layers.FlowKey, eth layers.Ethernet,
	isn, peerSeq uint32, mss int, rng *wire.RNG) (uint32, error) {
	size := streamLen(s.DirStream, s.recs)
	off := 0
	seq := isn
	for off < size {
		n := mss
		// Real senders flush on application write boundaries: end the
		// segment early at the next write mark so segment boundaries and
		// timestamps line up with application behaviour.
		ts := s.TimeAt(int64(off))
		if nextOff, ok := nextMark(s.DirStream, int64(off)); ok && nextOff-int64(off) < int64(n) {
			n = int(nextOff - int64(off))
		}
		if off+n > size {
			n = size - off
		}
		// Occasional sub-MSS flush (ack-clocking artefacts).
		if n == mss && rng.Bool(0.02) {
			n = rng.IntRange(mss/2, mss)
		}
		flags := layers.TCPAck
		// PSH on write boundaries (the last segment of an application
		// write), approximated by checking whether the next byte starts a
		// new write.
		if nextOff, ok := nextMark(s.DirStream, int64(off)); !ok || nextOff == int64(off+n) {
			flags |= layers.TCPPsh
		}
		if err := m.addSegment(ts, key, eth, layers.TCP{
			Seq: seq, Ack: peerSeq, Flags: flags, Window: 64240,
		}, s, off, n); err != nil {
			return 0, err
		}
		seq += uint32(n)
		off += n
	}
	return seq, nil
}

// nextMark returns the first write-mark offset strictly greater than off.
func nextMark(d session.DirStream, off int64) (int64, bool) {
	lo, hi := 0, len(d.Writes)
	for lo < hi {
		mid := (lo + hi) / 2
		if d.Writes[mid].Offset <= off {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(d.Writes) {
		return 0, false
	}
	return d.Writes[lo].Offset, true
}

// streamStart returns a direction's earliest write time.
func streamStart(d session.DirStream) time.Time {
	if len(d.Writes) > 0 {
		return d.Writes[0].Time
	}
	return time.Unix(0, 0)
}

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
package capture

import (
	"fmt"
	"io"
	"net/netip"
	"sort"
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
	// RecordVersion is the record layer the noise flows negotiate. The
	// zero value inherits the interactive trace's own generation, so a
	// TLS 1.3 household produces TLS 1.3 noise; set it explicitly to mix
	// generations on one tap.
	RecordVersion tlsrec.RecordVersion
	// RecordVersionSet marks RecordVersion as explicit (needed because
	// RecordTLS12 is the zero value).
	RecordVersionSet bool
	// Transport is the transport the noise flows speak. The zero value
	// inherits the interactive trace's transport — a QUIC household
	// produces QUIC noise — mirroring RecordVersion inheritance; set
	// TransportSet to mix transports on one tap.
	Transport    quicrec.Transport
	TransportSet bool
}

// frame is one synthesized packet awaiting interleave. Frame bytes live
// in a shared arena (start/end offsets) so a capture costs one buffer, not
// one allocation per packet.
type frame struct {
	ts         time.Time
	start, end int
	// seqKey breaks timestamp ties so a direction's segments stay ordered.
	seqKey int
}

// muxer accumulates every conversation's frames in one arena before the
// final time interleave.
type muxer struct {
	arena  *wire.Writer
	frames []frame
	ipID   uint16
	shift  time.Duration // applied to every frame timestamp
}

// add serializes one frame into the arena.
func (m *muxer) add(ts time.Time, key layers.FlowKey, eth layers.Ethernet,
	tcp layers.TCP, payload []byte) error {
	start := m.arena.Len()
	if err := layers.AppendTCPFrame(m.arena, key, eth, tcp, payload, m.ipID); err != nil {
		return err
	}
	m.ipID++
	m.frames = append(m.frames, frame{ts: ts.Add(m.shift), start: start, end: m.arena.Len(), seqKey: len(m.frames)})
	return nil
}

// addUDP serializes one UDP frame into the arena.
func (m *muxer) addUDP(ts time.Time, key layers.FlowKey, eth layers.Ethernet, payload []byte) error {
	start := m.arena.Len()
	if err := layers.AppendUDPFrame(m.arena, key, eth, payload, m.ipID); err != nil {
		return err
	}
	m.ipID++
	m.frames = append(m.frames, frame{ts: ts.Add(m.shift), start: start, end: m.arena.Len(), seqKey: len(m.frames)})
	return nil
}

// writeTo interleaves all frames by timestamp (stable on insertion order
// within a tie) and emits the pcap file. A destination that can grow,
// such as a bytes.Buffer, is grown once to the exact file size first,
// instead of doubling its way up through the multi-megabyte capture.
func (m *muxer) writeTo(w io.Writer) error {
	sort.SliceStable(m.frames, func(i, j int) bool {
		if m.frames[i].ts.Equal(m.frames[j].ts) {
			return m.frames[i].seqKey < m.frames[j].seqKey
		}
		return m.frames[i].ts.Before(m.frames[j].ts)
	})
	if g, ok := w.(interface{ Grow(n int) }); ok {
		// The frames tile the arena, so the file is the 24-byte pcap
		// header, a 16-byte record header per frame and the arena.
		g.Grow(24 + 16*len(m.frames) + m.arena.Len())
	}
	pw := pcapio.NewWriter(w)
	raw := m.arena.Bytes()
	for _, f := range m.frames {
		if err := pw.WritePacket(f.ts, raw[f.start:f.end]); err != nil {
			return err
		}
	}
	return nil
}

// addConversation synthesizes one full conversation into the muxer. A
// direction carrying datagram descriptors renders as a QUIC/UDP exchange
// (one frame per datagram, no TCP ceremony); otherwise the byte stream is
// cut into TCP segments with a three-way handshake, both directions' data
// segments and a FIN exchange. finAt is when the FIN exchange starts.
func (m *muxer) addConversation(cl, sv session.DirStream, ep Endpoints,
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
		layers.TCP{Seq: cISN, Flags: layers.TCPSyn, Window: 64240}, nil); err != nil {
		return err
	}
	if err := m.add(hs.Add(10*time.Millisecond), s2c, sEth,
		layers.TCP{Seq: sISN, Ack: cISN + 1, Flags: layers.TCPSyn | layers.TCPAck, Window: 65160}, nil); err != nil {
		return err
	}
	if err := m.add(hs.Add(20*time.Millisecond), c2s, cEth,
		layers.TCP{Seq: cISN + 1, Ack: sISN + 1, Flags: layers.TCPAck, Window: 64240}, nil); err != nil {
		return err
	}

	// Data segments for each direction.
	cEnd, err := m.segmentDirection(cl, c2s, cEth, cISN+1, sISN+1, mss, rng)
	if err != nil {
		return err
	}
	sEnd, err := m.segmentDirection(sv, s2c, sEth, sISN+1, cISN+1, mss, rng)
	if err != nil {
		return err
	}

	// FIN exchange after the last data in either direction.
	fin := finAt.Add(50 * time.Millisecond)
	if err := m.add(fin, c2s, cEth,
		layers.TCP{Seq: cEnd, Ack: sEnd, Flags: layers.TCPFin | layers.TCPAck, Window: 64240}, nil); err != nil {
		return err
	}
	return m.add(fin.Add(12*time.Millisecond), s2c, sEth,
		layers.TCP{Seq: sEnd, Ack: cEnd + 1, Flags: layers.TCPFin | layers.TCPAck, Window: 65160}, nil)
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
			return fmt.Errorf("capture: datagram [%d,%d) outside %d-byte stream (lean trace?)",
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

// arenaFor sizes the shared frame arena for the given stream volume.
func arenaFor(streamBytes, writes int) (*wire.Writer, int) {
	frameEstimate := streamBytes/1400 + writes + 16
	return wire.GetWriter(streamBytes + 64*frameEstimate), frameEstimate
}

// WritePcap renders tr as a pcap stream into w.
func WritePcap(w io.Writer, tr *session.Trace, opts Options) error {
	opts = opts.withDefaults(tr)
	streamBytes := len(tr.ClientToServer.Bytes) + len(tr.ServerToClient.Bytes)
	arena, frameEstimate := arenaFor(streamBytes,
		len(tr.ClientToServer.Writes)+len(tr.ServerToClient.Writes)+
			len(tr.ClientToServer.Datagrams)+len(tr.ServerToClient.Datagrams))
	defer wire.PutWriter(arena)
	m := &muxer{arena: arena, frames: make([]frame, 0, frameEstimate), ipID: 1, shift: opts.TimeOffset}
	rng := wire.NewRNG(opts.Seed + 0x9e37)
	if err := m.addConversation(tr.ClientToServer, tr.ServerToClient,
		opts.Endpoints, opts.MTU, tr.Result.EndedAt, rng); err != nil {
		return err
	}
	return m.writeTo(w)
}

// WritePcapMulti renders the interleaved scenario: tr's conversation plus
// opts.NoiseFlows concurrent bulk-streaming flows spanning the same
// capture window, all interleaved in time order. Noise flows are seeded
// off opts.Seed, so equal options reproduce byte-identical captures.
func WritePcapMulti(w io.Writer, tr *session.Trace, opts MultiOptions) error {
	opts.Options = opts.Options.withDefaults(tr)
	start := streamStart(tr.ClientToServer)
	end := tr.Result.EndedAt

	recVer := opts.RecordVersion
	if !opts.RecordVersionSet {
		recVer = tr.Profile.RecordVersion()
	}

	transport := opts.Transport
	if !opts.TransportSet {
		transport = tr.Transport
	}

	// Synthesize the noise flows first so the arena can be sized for the
	// whole capture.
	noise := make([]noiseFlow, opts.NoiseFlows)
	streamBytes := len(tr.ClientToServer.Bytes) + len(tr.ServerToClient.Bytes)
	writes := len(tr.ClientToServer.Writes) + len(tr.ServerToClient.Writes) +
		len(tr.ClientToServer.Datagrams) + len(tr.ServerToClient.Datagrams)
	for i := range noise {
		seed := opts.Seed ^ uint64(0xbeef+i*7919)
		if transport == quicrec.TransportQUIC {
			noise[i] = synthNoiseFlowQUIC(seed, start, end)
		} else {
			noise[i] = synthNoiseFlow(seed, start, end, recVer)
		}
		streamBytes += len(noise[i].client.Bytes) + len(noise[i].server.Bytes)
		writes += len(noise[i].client.Writes) + len(noise[i].server.Writes) +
			len(noise[i].client.Datagrams) + len(noise[i].server.Datagrams)
	}

	arena, frameEstimate := arenaFor(streamBytes, writes)
	defer wire.PutWriter(arena)
	m := &muxer{arena: arena, frames: make([]frame, 0, frameEstimate), ipID: 1, shift: opts.TimeOffset}
	rng := wire.NewRNG(opts.Seed + 0x9e37)
	if err := m.addConversation(tr.ClientToServer, tr.ServerToClient,
		opts.Endpoints, opts.MTU, end, rng); err != nil {
		return err
	}
	for i := range noise {
		if err := m.addConversation(noise[i].client, noise[i].server,
			noiseEndpoints(opts.Endpoints, i), opts.MTU, noise[i].endedAt, rng.Fork(uint64(i+1))); err != nil {
			return err
		}
	}
	return m.writeTo(w)
}

// noiseFlow is one synthesized background conversation.
type noiseFlow struct {
	client, server session.DirStream
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
	sBuf := wire.NewWriter(4 << 20)

	// The flow opens within the first seconds of the capture window.
	t := start.Add(time.Duration(rng.IntRange(200, 4000)) * time.Millisecond)
	f.client.Writes = append(f.client.Writes, session.WriteMark{Offset: 0, Time: t})
	cEnc.HandshakeTranscript(cBuf, t, rng.IntRange(280, 560))
	st := t.Add(path.RTT() / 2)
	f.server.Writes = append(f.server.Writes, session.WriteMark{Offset: 0, Time: st})
	sEnc.HandshakeTranscript(sBuf, st, 3700)

	for t.Before(end) {
		// Client request. Mostly ordinary sizes; occasionally one that
		// lands near the report bands (session tokens, beacons).
		req := rng.IntRange(180, 1400)
		if rng.Bool(0.08) {
			req = rng.IntRange(2000, 3300)
		}
		f.client.Writes = append(f.client.Writes,
			session.WriteMark{Offset: int64(cBuf.Len()), Time: t})
		cEnc.WriteApplicationData(cBuf, t, req)

		// Server response: a media-sized chunk behind HTTP framing (sized
		// on the simulator's schematic media scale, so a noise flow's
		// volume is comparable to the interactive session's).
		respAt := path.Transfer(t, req+60)
		resp := rng.IntRange(30_000, 120_000) + cdn.ResponseOverhead
		f.server.Writes = append(f.server.Writes,
			session.WriteMark{Offset: int64(sBuf.Len()), Time: respAt})
		sEnc.WriteApplicationData(sBuf, respAt, resp)
		done := path.Transfer(respAt, resp)

		// Next request after the player drains some buffer.
		t = done.Add(time.Duration(rng.IntRange(3000, 9000)) * time.Millisecond)
	}
	f.client.Bytes = cBuf.CopyBytes()
	f.server.Bytes = sBuf.CopyBytes()
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
	f.client.Bytes = cBuf.CopyBytes()
	f.server.Bytes = sBuf.CopyBytes()
	f.endedAt = t
	return f
}

// segmentDirection cuts one direction's byte stream into MSS-bounded
// segments timestamped from the write schedule. Returns the next sequence
// number after the stream.
func (m *muxer) segmentDirection(d session.DirStream, key layers.FlowKey, eth layers.Ethernet,
	isn, peerSeq uint32, mss int, rng *wire.RNG) (uint32, error) {
	stream := d.Bytes
	off := 0
	seq := isn
	for off < len(stream) {
		n := mss
		// Real senders flush on application write boundaries: end the
		// segment early at the next write mark so segment boundaries and
		// timestamps line up with application behaviour.
		ts := d.TimeAt(int64(off))
		if nextOff, ok := nextMark(d, int64(off)); ok && nextOff-int64(off) < int64(n) {
			n = int(nextOff - int64(off))
		}
		if off+n > len(stream) {
			n = len(stream) - off
		}
		// Occasional sub-MSS flush (ack-clocking artefacts).
		if n == mss && rng.Bool(0.02) {
			n = rng.IntRange(mss/2, mss)
		}
		payload := stream[off : off+n]
		flags := layers.TCPAck
		// PSH on write boundaries (the last segment of an application
		// write), approximated by checking whether the next byte starts a
		// new write.
		if nextOff, ok := nextMark(d, int64(off)); !ok || nextOff == int64(off+n) {
			flags |= layers.TCPPsh
		}
		if err := m.add(ts, key, eth, layers.TCP{
			Seq: seq, Ack: peerSeq, Flags: flags, Window: 64240,
		}, payload); err != nil {
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

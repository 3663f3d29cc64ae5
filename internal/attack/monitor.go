package attack

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/layers"
	"repro/internal/pcapio"
	"repro/internal/quicrec"
	"repro/internal/tcpreasm"
	"repro/internal/tlsrec"
)

// Monitor is the incremental form of the attack: an on-path eavesdropper
// that watches traffic as it happens. Packets (or raw pcap bytes in
// chunks of any size) are fed as they arrive; the monitor demultiplexes
// them into per-TCP-flow reassembly states, scans each flow's TLS records
// as they complete, classifies client records against the trained bands
// and maintains a live partial-path hypothesis per candidate flow by
// extending the graph alignment one observation at a time. UDP flows
// whose first datagram sniffs as QUIC run the same pipeline over burst
// features instead: client datagrams are grouped into gap-delimited
// bursts (BurstSegmenter) and each completed burst classifies as a
// pseudo-record of its summed size. Typed events fire on the way
// (FlowDetected, ChoiceInferred, SessionFinalized, FlowExpired,
// QUICFlowObserved) and Close returns the final Inference for the best
// candidate flow.
//
// The one-shot Attacker.InferPcap is a thin wrapper over a Monitor: for a
// single-conversation capture the result is byte-identical at any feed
// granularity, down to single-byte chunks. For captures holding several
// TLS conversations the monitor improves on the old largest-flow rule: it
// attacks the flow whose record sequence best matches the title's script
// graph, which is what lets it find the interactive session among
// concurrent bulk-streaming noise.
//
// In every mode reassembly hands each flow's in-order TCP bytes straight
// to that direction's record scanner as the packet carrying them is
// ingested, so only out-of-order bytes waiting behind a gap are held, and
// each flow keeps one store of record descriptors: its client records
// (TCP) or burst pseudo-records (QUIC), the observation the attack
// decodes. Server descriptors are dropped as they are scanned, since the
// attack never reads them. By default every flow stays open until Close,
// so the decode sees each flow's whole observation. A real deployment
// watches a link tap for hours; MonitorOptions.Window turns on the
// rolling-window mode for that regime: flows finalize individually on
// FIN/RST or an idle timeout (emitting SessionFinalized or FlowExpired as
// they go), and noise flows that never produce an in-band report are
// rejected and eventually evicted, so one monitor runs indefinitely in
// memory bounded by the set of concurrently live conversations rather
// than by uptime. Close applies one rule in both modes to the flows still
// open.
//
// A Monitor runs on the caller's goroutine: Feed and FeedPacket parse,
// decode and process their packets before they return, and OnEvent runs
// inside those calls. To watch more traffic than one core carries, run
// one Monitor per process on an RSS-split tap (the NIC hashes each flow
// to one receive queue), the shape wmdataset -shard uses for corpora.
//
// A Monitor is single-session state and not safe for concurrent use.
type Monitor struct {
	atk     *Attacker
	onEvent func(Event) // when set, also runs the live hypothesis engine
	win     *Window

	cr  *pcapio.ChunkReader
	pkt layers.Packet // every frame decodes into this one Packet

	flows map[layers.FlowKey]*monFlow // keyed by canonical conversation key
	last  *monFlow                    // flow of the last packet routed; nil once dropped
	wheel *timeWheel                  // idle-expiry deadlines (window mode), from the first decoded packet

	clock      time.Time // high-water capture timestamp
	seq        uint64    // decoded packets so far; orders flows by first sight
	sinceSweep int       // packets since the last idle sweep
	sweptAt    time.Time // capture clock of the last idle sweep
	sweepBy    time.Time // sweptAt + IdleTimeout/4: the clock that forces the next sweep
	sweeps     int64     // idle sweeps run

	finalized   int   // SessionFinalized emitted
	expired     int   // FlowExpired emitted
	rejectedNow int   // flows currently in rejected probation
	sweepTouch  int64 // wheel entries examined across all sweeps

	// Verdicts: the best finalized session, and the largest-flow
	// fallback — until a session finalizes, the largest viable flow to
	// expire keeps its inference, so a capture with no classified reports
	// still attacks its biggest conversation. It costs one Infer per
	// new-largest expiry. settled stops fallback stashing once a session
	// has finalized. inferErr is the first error Infer returned, which
	// Close reports when no flow yielded an inference.
	best, fallback *verdict
	settled        bool
	inferErr       error

	table      *PathTable // lazily built when the attacker has a graph
	tableTried bool       // one-shot: a failed build is not retried per record

	closed bool
	err    error
}

// verdict is one flow's candidacy for the Close result.
type verdict struct {
	inf     *Inference
	flow    layers.FlowKey // client→server key, as SessionFinalized carries it
	matched int
	score   float64
	bytes   int64
}

// sessionVerdict ranks a flow's inference by its best hypothesis
// (matched in-band observations, then score); without a graph the
// flow's in-band count stands in for matched.
func sessionVerdict(f *monFlow, inf *Inference) *verdict {
	v := &verdict{inf: inf, flow: f.clientKey, matched: f.hards}
	if len(inf.Hypotheses) > 0 {
		v.matched, v.score = inf.Hypotheses[0].Matched, inf.Hypotheses[0].Score
	}
	return v
}

// beats ranks sessions: more matched in-band observations, then a higher
// score. Of equals neither beats the other, so the session held first
// stays.
func (v *verdict) beats(o *verdict) bool {
	if v.matched != o.matched {
		return v.matched > o.matched
	}
	return v.score > o.score
}

// weight is a fallback's byte volume; no fallback weighs 0.
func (v *verdict) weight() int64 {
	if v == nil {
		return 0
	}
	return v.bytes
}

// Window configures the monitor's rolling-window mode: bounded-memory
// operation over an indefinite link tap.
type Window struct {
	// IdleTimeout finalizes a flow when no packet has arrived on it for
	// this long on the capture clock (the high-water frame timestamp, so
	// replayed captures age exactly as live links do). Zero selects the
	// default of 90s.
	IdleTimeout time.Duration
}

// withDefaults resolves a zero IdleTimeout.
func (w Window) withDefaults() Window {
	if w.IdleTimeout <= 0 {
		w.IdleTimeout = 90 * time.Second
	}
	return w
}

// The rolling window's noise-rejection thresholds. A flow whose client
// side classifies application records without a single in-band report is
// rejected by whichever rule trips first: its record descriptors are
// released and it enters bounded re-check probation; a flow that produces
// an in-band report during probation is rehabilitated at once, outside
// the re-check cadence.
const (
	// rejectAfterRecords is the count rule, the floor for dense flows:
	// this many reportless client application records reject a flow.
	rejectAfterRecords = 128
	// rejectQuiet is the rate-based clock rule — the figure a deployed
	// tap actually reasons in is reports per minute of capture clock, not
	// records. A flow that has classified application records for this
	// long (measured on the capture clock from its first classified
	// record) without a single in-band report is rejected no matter how
	// few records it produced, which is what evicts slow-drip noise the
	// count rule would tolerate for many minutes. An interactive
	// session's first report lands well inside it (~49s after the first
	// record under the calibrated profiles; a late report still
	// rehabilitates).
	rejectQuiet = 150 * time.Second
	// rejectQuietMinRecords is the least number of classified client
	// application records before rejectQuiet may reject a flow, so a
	// conversation that has barely spoken is not condemned by the clock
	// alone.
	rejectQuietMinRecords = 12
	// recheckEvery is the number of further application records between
	// re-checks of a rejected flow. Re-checks also fire once per
	// rejectQuiet of capture clock, so a slow-drip flow's bounded
	// probation ends in bounded time, not just in a bounded record count.
	recheckEvery = 64
	// recheckBudget is how many re-check rounds a rejected flow gets
	// before terminal eviction (its reassembly stops buffering entirely).
	recheckBudget = 4
)

// sweepInterval is how many ingested packets pass between idle sweeps in
// window mode. A sweep also fires early whenever the capture clock jumps
// by a quarter of IdleTimeout since the last sweep — the packet-count
// cadence alone would let a sparse tap (one packet after a long silence)
// keep idle flows alive arbitrarily long, so the clock-jump rule is what
// actually bounds expiry latency.
const sweepInterval = 256

// minSessionHards is the least in-band report count for a finalizing flow
// to be inferred as an interactive session rather than expired as noise:
// 1, so no flow with a report is discarded unattacked, whether it
// finalizes mid-feed or at Close. (An accidental band collision on a bulk
// flow does cost one Infer and a low-matched SessionFinalized; selection
// by (matched, score) still rejects it as the final answer.)
const minSessionHards = 1

// recordFootprint approximates one retained record descriptor's heap cost
// for Stats accounting.
const recordFootprint = 96

// MonitorOptions tunes a Monitor.
type MonitorOptions struct {
	// OnEvent, when non-nil, receives typed events synchronously as they
	// fire during Feed/FeedPacket/Close. It also enables the live
	// per-record hypothesis engine (ChoiceInferred events); without it the
	// monitor still classifies each client record as it completes and
	// counts its in-band reports, but keeps no live hypothesis.
	OnEvent func(Event)
	// Window, when non-nil, turns on the rolling-window mode: per-flow
	// FIN/RST/idle finalization, and rejection and eviction of noise
	// flows. Without it every flow stays open until Close, which then
	// concludes them all by the rule both modes share.
	Window *Window
	// Shards is ignored: a Monitor always runs on the caller's goroutine.
	//
	// Deprecated: scale out with one Monitor per process on an RSS-split
	// tap.
	Shards int
}

// Event is a typed notification emitted by a Monitor.
type Event interface{ monitorEvent() }

// FlowDetected fires once per flow, when the first in-band state report
// classifies on it — the moment the eavesdropper knows which of the
// interleaved connections carries the interactive session.
type FlowDetected struct {
	// Flow is the client→server flow key.
	Flow layers.FlowKey
	// At is the capture time of the triggering record.
	At time.Time
	// Length is the record length that fell into a learned band.
	Length int
	// Class is the report class that triggered detection.
	Class Class
}

// ChoiceInferred fires on each new in-band report: the running decode
// state after absorbing it.
type ChoiceInferred struct {
	// Flow is the client→server flow key.
	Flow layers.FlowKey
	// At is the capture time of the triggering record.
	At time.Time
	// Choice is the index of the latest choice the evidence pertains to.
	Choice int
	// TookDefault is the running belief about that choice.
	TookDefault bool
	// Decisions is the current best full-path hypothesis (nil when the
	// attacker has no graph; then only the plain running decode exists).
	Decisions []bool
	// DecodeMargin is the running score margin between the best hypothesis
	// and the best hypothesis disagreeing on a *confirmed* choice. A
	// type-1 report confirms every choice before it (the latest stays open
	// until its type-2 arrives or the next type-1 rules it out); a type-2
	// confirms its own choice. 0 while nothing discriminates, or without a
	// graph.
	DecodeMargin float64
}

// SessionFinalized fires with a flow's final inference, once per flow
// that concludes as a session: at Close, for every flow still open that
// carries in-band reports (or, when no flow does, for the largest
// conversation), and in rolling-window mode also the moment a flow
// finalizes on a FIN/RST exchange or an idle timeout — a mid-session
// expiry carries the partial path decoded so far with its
// confirmed-prefix DecodeMargin. The Inference Close returns is the very
// pointer one of these events carried.
type SessionFinalized struct {
	// Flow is the client→server flow key of the attacked conversation.
	Flow layers.FlowKey
	// Inference is the final attack output, identical to what
	// Attacker.InferPcap returns for the same capture.
	Inference *Inference
}

// FlowExpired fires when a flow leaves the monitor without finalizing as
// an interactive session: at Close in both modes (Reason "close"), and in
// rolling-window mode when its FIN/RST exchange arrives, it idles out, or
// rejection probation settles.
type FlowExpired struct {
	// Flow is the client→server flow key when the client side was seen,
	// else the canonical conversation key.
	Flow layers.FlowKey
	// At is the capture-clock time of the eviction.
	At time.Time
	// Reason is "fin", "rst", "idle", "rejected" or "close".
	Reason string
	// Records is the number of client application records classified.
	Records int
	// Bytes is the delivered byte volume, both directions.
	Bytes int64
}

// QUICFlowObserved fires once per UDP flow whose traffic sniffs as QUIC,
// on the first parseable long-header datagram — the eavesdropper's cue
// that a QUIC handshake is underway and the flow will be observed as
// bursts rather than records. It is informational: detection of the
// interactive session still fires FlowDetected when the first in-band
// burst classifies.
type QUICFlowObserved struct {
	// Flow is the client→server flow key when the client side was seen,
	// else the canonical conversation key.
	Flow layers.FlowKey
	// At is the capture time of the triggering datagram.
	At time.Time
	// Version is the QUIC version from the long header (1 for v1).
	Version uint32
	// DCIDLen is the destination connection ID length the header carried.
	DCIDLen int
}

func (FlowDetected) monitorEvent()     {}
func (ChoiceInferred) monitorEvent()   {}
func (SessionFinalized) monitorEvent() {}
func (FlowExpired) monitorEvent()      {}
func (QUICFlowObserved) monitorEvent() {}

// MonitorStats is a point-in-time snapshot of a monitor's footprint, the
// figure the soak harness asserts stays flat over an indefinite feed.
type MonitorStats struct {
	// Flows is the number of tracked conversation entries, including
	// evicted tombstones awaiting their FIN/idle drop.
	Flows int
	// LiveFlows are flows that can still finalize as a session.
	LiveFlows int
	// RejectedFlows are flows currently in rejected probation.
	RejectedFlows int
	// FinalizedSessions counts SessionFinalized events so far, in both
	// modes.
	FinalizedSessions int
	// ExpiredFlows counts FlowExpired events so far, in both modes.
	ExpiredFlows int
	// RetainedBytes approximates the monitor's retained buffer memory:
	// the out-of-order segments reassembly holds behind a gap (in-order
	// bytes go straight to the record scanners and are not kept), the
	// flows' client record descriptors, and the carried partial record of
	// the pcap feed.
	RetainedBytes int64
	// Sweeps counts idle sweeps run so far (window mode).
	Sweeps int64
	// SweepTouched counts timing-wheel entries examined across all
	// sweeps. With the wheel this grows O(expired + re-armed), not
	// O(flows × sweeps) — the soak asserts the gap.
	SweepTouched int64
	// Shards is always nil.
	//
	// Deprecated: a Monitor is not sharded.
	Shards []ShardStats
}

// ShardStats is the element type of the always-nil MonitorStats.Shards.
//
// Deprecated: a Monitor is not sharded.
type ShardStats struct {
	// Flows is a shard's tracked conversation count.
	Flows int
}

// monDir is one direction of a monitored conversation: the reassembly
// stream and the record scanner it delivers in-order bytes into.
type monDir struct {
	stream *tcpreasm.Stream
	sc     *tlsrec.RecordScanner
}

// quicFlow is the QUIC/UDP replacement for the two reassembly directions:
// the client-side burst segmenter and each side's byte count.
type quicFlow struct {
	sniffed     bool // first datagram examined
	observed    bool // QUICFlowObserved emitted
	seg         BurstSegmenter
	clientBytes int64
	serverBytes int64
}

// monFlow is one TCP or QUIC conversation under observation. quic is
// non-nil for UDP flows; then the monDir pair stays unused.
type monFlow struct {
	canonical layers.FlowKey

	// clientSide and serverSide are the orientations, against canonical,
	// of each end's packets: Unrelated until isClient resolves one.
	clientSide, serverSide layers.Orientation

	clientKey layers.FlowKey
	client    monDir
	server    monDir
	quic      *quicFlow
	detected  bool
	firstSeq  uint64   // decoded-packet sequence of the flow's first packet
	ent       *twEntry // idle-expiry wheel entry (window mode)

	// Rolling-window state.
	lastSeen     time.Time
	firstAppAt   time.Time // capture time of the first classified app record
	dead         bool      // non-TLS or terminally evicted: streams discarded
	rejected     bool      // zero-report probation
	announced    bool      // FlowExpired already emitted (tombstones expire once)
	nextRecheck  int       // classified-record count of the next probation check
	nextRecheckT time.Time // capture-clock deadline of the next probation check
	rechecks     int       // probation rounds left before terminal eviction

	// recs is the flow's observation: every client record (TCP) or
	// completed burst as a pseudo-record (QUIC; Length is the burst's
	// summed datagram bytes, Time its first arrival), less what noise
	// rejection dropped.
	recs []tlsrec.Record

	// Live decode state, kept per client record in every mode; pa only
	// when the monitor has OnEvent.
	anchor     time.Time
	classified int // client application records classified so far
	hards      int // in-band (type-1/type-2) records among them
	// The plain running decode ChoiceInferred reports without a graph: a
	// type-1 opens a choice (choices counts them) taken by default, and
	// a type-2 before the next type-1 flips the latest to non-default.
	choices       int
	latestDefault bool
	pa            *prefixAligner
}

// NewMonitor returns a streaming monitor for a trained attacker.
func NewMonitor(a *Attacker, opts MonitorOptions) *Monitor {
	m := &Monitor{
		atk:     a,
		onEvent: opts.OnEvent,
		flows:   make(map[layers.FlowKey]*monFlow),
	}
	if opts.Window != nil {
		w := opts.Window.withDefaults()
		m.win = &w
	}
	return m
}

// NewMonitor is the method form of the package constructor.
func (a *Attacker) NewMonitor(opts MonitorOptions) *Monitor {
	return NewMonitor(a, opts)
}

// emit hands one event to the OnEvent callback, if there is one.
func (m *Monitor) emit(ev Event) {
	if m.onEvent != nil {
		m.onEvent(ev)
	}
}

// Feed ingests raw pcap bytes — the global header followed by records —
// in chunks of any size, including single bytes and mid-packet splits.
// Complete packets are processed as soon as their last byte arrives,
// parsed in place: only a record cut at the chunk's end and out-of-order
// TCP bytes waiting in reassembly are copied. The caller may reuse its
// buffer as soon as Feed returns.
func (m *Monitor) Feed(chunk []byte) error {
	if m.closed {
		return errors.New("attack: monitor is closed")
	}
	if m.err != nil {
		return m.err
	}
	if m.cr == nil {
		m.cr = pcapio.NewChunkReader()
	}
	m.cr.Feed(chunk)
	for {
		rec, ok, err := m.cr.Next()
		if err != nil {
			m.err = wrapReadErr(m.cr.HeaderDone(), err)
			return m.err
		}
		if !ok {
			return nil
		}
		m.ingestFrame(rec.Timestamp, rec.Data)
	}
}

// FeedPacket ingests one captured frame directly (for consumers that
// already demultiplex packets, e.g. a live capture loop). The frame is
// decoded in place and only out-of-order TCP bytes are copied out of it;
// the caller may reuse its buffer as soon as FeedPacket returns.
func (m *Monitor) FeedPacket(ts time.Time, frame []byte) error {
	if m.closed {
		return errors.New("attack: monitor is closed")
	}
	if m.err != nil {
		return m.err
	}
	m.ingestFrame(ts, frame)
	return nil
}

// wrapReadErr wraps a pcap framing error: file-header problems surface
// as attack errors, per-record problems as capture read errors.
func wrapReadErr(headerDone bool, err error) error {
	if !headerDone {
		return fmt.Errorf("attack: %w", err)
	}
	return fmt.Errorf("attack: reading capture: %w", err)
}

// ingestFrame decodes one frame, advances the capture clock, packet
// sequence and sweep cadence, and runs the packet through its flow.
func (m *Monitor) ingestFrame(ts time.Time, frame []byte) {
	if ts.After(m.clock) {
		m.clock = ts
	}
	p := &m.pkt
	if err := layers.DecodeInto(p, ts, frame); err != nil {
		return // non-IP, neither TCP nor UDP, an IP fragment, or truncated
	}
	// Consecutive packets mostly belong to one conversation, so the
	// packet's 5-tuple is first compared in place with the canonical key
	// of the last packet's flow, which also gives its orientation; only a
	// packet of another conversation builds its key and canonical key and
	// reads the map. The memo always names an open flow: dropFlow forgets
	// it, and the sweep below exempts this packet's own flow.
	f := m.last
	var o layers.Orientation
	if f != nil {
		o = p.Orient(&f.canonical)
	}
	var canon layers.FlowKey
	if o == layers.Unrelated {
		var along bool
		canon, along = p.Flow().Canonical()
		o = layers.Against
		if along {
			o = layers.Along
		}
		f = m.flows[canon] // nil for a new conversation
	}
	if m.win != nil {
		if m.wheel == nil {
			// The wheel's tick grid is anchored at the first decoded packet.
			m.wheel = newTimeWheel(ts, m.win.IdleTimeout)
		}
		if m.sweepDue() {
			// Sweep BEFORE the packet's own events, so a clock jump expires
			// idle flows ahead of whatever this packet emits — the event
			// stream stays monotone in capture time. The triggering
			// packet's own flow is exempt: its arrival is the traffic that
			// disproves idleness, even if the timestamp gap alone says
			// otherwise.
			m.sweep(f)
		}
	}
	m.seq++
	if f == nil {
		f = m.newFlow(canon, ts)
	}
	m.last = f
	if p.Proto == layers.IPProtocolUDP {
		m.ingestDatagram(p, f, o)
	} else {
		m.ingest(p, f, o)
	}
}

// sweepDue advances the sweep cadence by one packet and reports whether
// an idle sweep should run now: every sweepInterval packets, or
// sooner when the capture clock has jumped a quarter of the idle timeout
// since the last sweep, so a sparse tap (one packet after a long
// silence) still ages flows out promptly.
//
// The clock test is one comparison against the deadline kept beside
// sweptAt. The clock is a high-water mark, so it never falls behind
// sweptAt, and clock < sweptAt + IdleTimeout/4 holds exactly when
// clock.Sub(sweptAt) < IdleTimeout/4 would, a Sub that saturates
// included; capture timestamps carry no monotonic reading, so Sub would
// take its checked path on every packet.
func (m *Monitor) sweepDue() bool {
	m.sinceSweep++
	if m.sweptAt.IsZero() {
		m.sweptAt, m.sweepBy = m.clock, m.clock.Add(m.win.IdleTimeout/4)
	}
	if m.sinceSweep < sweepInterval && m.clock.Before(m.sweepBy) {
		return false
	}
	m.sinceSweep, m.sweptAt, m.sweepBy = 0, m.clock, m.clock.Add(m.win.IdleTimeout/4)
	m.sweeps++
	return true
}

// ingest runs one decoded TCP packet through reassembly, scanning and
// window maintenance. f is the packet's flow and o its orientation
// against f.canonical.
func (m *Monitor) ingest(p *layers.Packet, f *monFlow, o layers.Orientation) {
	ts := p.Timestamp
	f.lastSeen = ts
	isClient := f.isClient(o)
	dir := &f.server
	if isClient {
		dir = &f.client
	}
	if dir.stream == nil {
		dir.sc = tlsrec.NewRecordScanner()
		dir.stream = tcpreasm.NewStreamTo(f.key(o), dir.sc)
	}
	// Reassembly hands the bytes this packet delivers straight to the
	// record scanner, which keeps only record headers, so no in-order
	// payload, which aliases the caller's bytes, outlives the packet's
	// ingest. A scanner that has hit a framing error stays stuck (the
	// direction is not TLS), and the conversation is never a candidate.
	dir.stream.Feed(p)
	if dir.sc.Err() != nil {
		// Not TLS: the conversation can never be attacked, so stop
		// buffering it in every mode (its data is never read again).
		m.deadenFlow(f)
	} else {
		// Take the records this packet completed, then drop them from the
		// scanner: client records live on in f.recs, and server records
		// are never read.
		recs := dir.sc.Records()
		if isClient && !f.dead {
			for _, r := range recs {
				m.onClientRecord(f, r)
			}
		}
		dir.sc.ReleaseRecords(dir.sc.Released() + len(recs))
	}
	if m.win != nil {
		if isClient {
			m.noiseTick(f)
		}
		m.maybeFinalize(f, ts)
	}
}

// newFlow starts tracking the conversation of a canonical key, first
// seen at packet m.seq, scheduling its idle-expiry wheel entry in window
// mode.
func (m *Monitor) newFlow(canon layers.FlowKey, ts time.Time) *monFlow {
	f := &monFlow{canonical: canon, firstSeq: m.seq}
	if canon.Proto == layers.IPProtocolUDP {
		f.quic = &quicFlow{}
	}
	m.flows[canon] = f
	if m.wheel != nil {
		f.ent = &twEntry{deadline: ts.Add(m.win.IdleTimeout), ord: f.firstSeq, flow: f}
		m.wheel.schedule(f.ent)
	}
	return f
}

// ingestDatagram advances a UDP flow by one datagram. The first datagram
// decides whether the flow is QUIC at all (the fixed bit); non-QUIC UDP
// is deadened exactly as a non-TLS TCP conversation would be. Long-header
// datagrams — the handshake — are announced once (QUICFlowObserved) and
// excluded from burst segmentation; client short-header datagrams drive
// the burst segmenter, and each completed burst replays through the
// record pipeline as a pseudo-record of the burst's summed size. Nothing
// beyond sizes and times is retained. f is the datagram's flow and o its
// orientation against f.canonical.
func (m *Monitor) ingestDatagram(p *layers.Packet, f *monFlow, o layers.Orientation) {
	ts := p.Timestamp
	f.lastSeen = ts
	if f.dead {
		return
	}
	q := f.quic
	if q == nil {
		return // 5-tuple collision between transports cannot happen (Proto keys the map)
	}
	if !q.sniffed {
		q.sniffed = true
		if !quicrec.Sniff(p.Payload) {
			// Not QUIC (plain DNS, WebRTC, ...): never attackable, stop
			// tracking its bytes in every mode.
			m.deadenFlow(f)
			return
		}
	}
	isClient := f.isClient(o)
	if isClient {
		q.clientBytes += int64(len(p.Payload))
	} else {
		q.serverBytes += int64(len(p.Payload))
	}
	if len(p.Payload) > 0 && quicrec.IsLongHeader(p.Payload[0]) {
		if !q.observed {
			if ver, dcidLen, ok := quicrec.ParseLongHeader(p.Payload); ok {
				q.observed = true
				m.emit(QUICFlowObserved{Flow: f.eventKey(), At: ts, Version: ver, DCIDLen: dcidLen})
			}
		}
		return // handshake flights never join bursts
	}
	if isClient {
		if b, ok := q.seg.Feed(ts, len(p.Payload)); ok {
			m.quicBurst(f, b)
		}
	}
	if m.win != nil {
		m.noiseTick(f)
	}
}

// quicBurst runs one completed client burst, as a pseudo-record of its
// summed size, through the same step a scanned TLS record takes.
func (m *Monitor) quicBurst(f *monFlow, b Burst) {
	m.onClientRecord(f, tlsrec.Record{Type: tlsrec.ContentApplicationData, Length: b.Bytes, Time: b.Start})
}

// flushQUIC closes a QUIC flow's open burst — the flow is ending, so the
// silence that would have closed it will never be observed.
func (m *Monitor) flushQUIC(f *monFlow) {
	if f.quic == nil || f.dead {
		return
	}
	if b, ok := f.quic.seg.Flush(); ok {
		m.quicBurst(f, b)
	}
}

// deadenFlow marks a conversation as unattackable and evicts its buffers:
// reassembly stops retaining payloads and its record descriptors are
// dropped. Candidate selection is unaffected — the flow was never viable.
func (m *Monitor) deadenFlow(f *monFlow) {
	if f.dead {
		return
	}
	f.dead = true
	if f.rejected {
		f.rejected = false
		m.rejectedNow--
	}
	for _, d := range []*monDir{&f.client, &f.server} {
		if d.stream != nil {
			d.stream.Discard()
		}
	}
	f.recs = nil
}

// noiseTick drives the zero-report rejection state machine for one flow's
// client side after a packet on it, dropping the flow's retained record
// descriptors when it rejects the flow and while probation lasts.
func (m *Monitor) noiseTick(f *monFlow) {
	if f.dead {
		return
	}
	if f.detected {
		if f.rejected {
			// A hard report arrived during probation: rehabilitated. Its
			// earliest descriptors are gone, so a finalize sees a partial
			// observation — the price of having looked like noise.
			f.rejected = false
			m.rejectedNow--
		}
		return
	}
	if !f.rejected {
		// Two rejection triggers: the count rule (dense flows trip it in
		// seconds) and the clock rule (a slow drip of reportless records
		// trips it after rejectQuiet of capture time, long before its
		// record count would).
		quiet := !f.firstAppAt.IsZero() && f.classified >= rejectQuietMinRecords &&
			m.clock.Sub(f.firstAppAt) >= rejectQuiet
		if f.classified >= rejectAfterRecords || quiet {
			// Before the descriptors go: if no session has been seen yet,
			// this flow may still end up the batch-rule fallback target
			// (largest conversation of a reportless capture), so its decode
			// over the pre-rejection prefix is stashed now — rejection must
			// never turn a zero-report capture into an error.
			m.stashFallback(f)
			f.rejected = true
			m.rejectedNow++
			f.rechecks = recheckBudget
			f.nextRecheck = f.classified + recheckEvery
			f.nextRecheckT = m.clock.Add(rejectQuiet)
			f.recs = f.recs[:0]
		}
		return
	}
	// Rejected probation: keep descriptors drained; after the bounded
	// re-check budget with still zero reports, evict terminally. Re-checks
	// fire on whichever cadence — record count or capture clock — comes
	// first, so slow drips cannot stretch probation indefinitely.
	f.recs = f.recs[:0]
	if f.classified >= f.nextRecheck || !m.clock.Before(f.nextRecheckT) {
		f.rechecks--
		f.nextRecheck = f.classified + recheckEvery
		f.nextRecheckT = m.clock.Add(rejectQuiet)
		if f.rechecks <= 0 {
			f.rejected = false
			m.rejectedNow--
			m.deadenFlow(f)
			m.expired++
			f.announced = true
			m.emit(FlowExpired{Flow: f.eventKey(), At: m.clock,
				Reason: "rejected", Records: f.classified, Bytes: f.totalBytes()})
		}
	}
}

// maybeFinalize finalizes a flow whose transport state ended: both
// directions saw their FIN delivered, or either direction was reset.
func (m *Monitor) maybeFinalize(f *monFlow, at time.Time) {
	cs, ss := f.client.stream, f.server.stream
	if cs == nil || ss == nil {
		return
	}
	switch {
	case cs.Aborted() || ss.Aborted():
		m.finalizeFlow(f, at, "rst")
	case cs.Complete() && ss.Complete():
		m.finalizeFlow(f, at, "fin")
	}
}

// sweep runs the idle sweep: flows with no traffic for IdleTimeout on the
// capture clock finalize, which is how conversations that vanish without
// a close (a device leaving the network) still leave the window. The
// timing wheel makes this O(expired + re-armed) — only entries whose
// deadline slot the clock crossed are examined, never the whole table.
// Popped entries whose flow saw traffic since scheduling re-arm at the
// refreshed deadline; entries whose flow is already gone are dropped
// (dropFlow leaves them in the wheel for exactly this lazy check).
//
// exempt is the flow of the packet that triggered the sweep (nil when
// the packet opens a new conversation): it is never expired by it, even
// when the packet's timestamp jump exceeds the idle timeout — the flow is
// provably not idle, its next packet is already in hand. Expiry order is
// the flow's first-seen order (twEntry.ord).
func (m *Monitor) sweep(exempt *monFlow) {
	for _, e := range m.wheel.advance(m.clock) {
		m.sweepTouch++
		f := e.flow
		if !m.isOpen(f) {
			continue // dropped since scheduling; stale entry
		}
		if f.lastSeen.IsZero() || f.lastSeen.Add(m.win.IdleTimeout).After(m.clock) || f == exempt {
			// Re-arm at the refreshed deadline. For the exempt flow this
			// may still be in the past (its packet has not landed yet);
			// schedule clamps past deadlines one tick out, and the next
			// pop re-checks against the then-updated lastSeen.
			e.deadline = f.lastSeen.Add(m.win.IdleTimeout)
			m.wheel.schedule(e)
			continue
		}
		m.finalizeFlow(f, m.clock, "idle")
	}
}

// sessionReady reports whether a flow has the in-band evidence to finalize
// as an interactive session.
func (m *Monitor) sessionReady(f *monFlow) bool {
	return !f.dead && f.viable() && f.hards >= minSessionHards
}

// finalizeFlow concludes one flow and removes it from the monitor. A viable
// flow with enough in-band evidence is inferred and emitted as a
// SessionFinalized — for a mid-session idle expiry that inference carries
// the partial path decoded so far and its confirmed-prefix DecodeMargin —
// and everything else expires.
func (m *Monitor) finalizeFlow(f *monFlow, at time.Time, reason string) {
	defer m.dropFlow(f)
	// A QUIC flow's last write never sees the gap that would close it.
	m.flushQUIC(f)
	if m.sessionReady(f) {
		if inf := m.infer(f); inf != nil {
			m.noteFinal(sessionVerdict(f, inf))
			return
		}
	}
	// A currently-rejected flow's retained records are the post-rejection
	// tail; its richer pre-rejection prefix was already stashed when the
	// rejection hit, so don't overwrite that with a worse observation.
	if !f.dead && !f.rejected {
		m.stashFallback(f)
	}
	if !f.announced {
		m.expired++
		f.announced = true
		m.emit(FlowExpired{Flow: f.eventKey(), At: at, Reason: reason,
			Records: f.classified, Bytes: f.totalBytes()})
	}
}

// noteFinal keeps a finalized session when it beats the best so far (the
// first of equals stays, being the earlier event) and emits its
// SessionFinalized.
func (m *Monitor) noteFinal(v *verdict) {
	if m.best == nil || v.beats(m.best) {
		m.best = v
	}
	m.settled = true
	m.finalized++
	m.emit(SessionFinalized{Flow: v.flow, Inference: v.inf})
}

// stashFallback makes f's inference the largest-flow fallback when no
// session has settled and f outweighs the current fallback.
func (m *Monitor) stashFallback(f *monFlow) {
	if m.settled || !f.viable() || f.totalBytes() <= m.fallback.weight() {
		return
	}
	if inf := m.infer(f); inf != nil {
		m.fallback = &verdict{inf: inf, flow: f.clientKey, bytes: f.totalBytes()}
	}
}

// infer runs the attack on f's observation. A failure yields nil, and the
// first one is kept for Close to report.
func (m *Monitor) infer(f *monFlow) *Inference {
	inf, err := m.atk.Infer(&Observation{ClientRecords: f.recs})
	if err != nil {
		if m.inferErr == nil {
			m.inferErr = err
		}
		return nil
	}
	return inf
}

// dropFlow releases a flow's reassembly state and forgets it, in the
// flow table and in the last-packet memo. A later packet on the same
// 5-tuple starts a fresh conversation, which is how port reuse on a long
// tap should read.
func (m *Monitor) dropFlow(f *monFlow) {
	if m.last == f {
		m.last = nil
	}
	if f.rejected {
		f.rejected = false
		m.rejectedNow--
	}
	for _, d := range []*monDir{&f.client, &f.server} {
		if d.stream != nil {
			d.stream.Discard()
		}
	}
	delete(m.flows, f.canonical)
}

// eventKey is the key flow-level events carry: client→server when known.
func (f *monFlow) eventKey() layers.FlowKey {
	if f.clientSide != layers.Unrelated {
		return f.clientKey
	}
	return f.canonical
}

// key is the directional key of packets of orientation o.
func (f *monFlow) key(o layers.Orientation) layers.FlowKey {
	if o == layers.Against {
		return f.canonical.Reverse()
	}
	return f.canonical
}

// isClient reports whether packets of orientation o come from the
// client, TCP and QUIC alike. The first packet of each orientation
// resolves it by the batch orienter's rule: the endpoint talking to a
// well-known port is the client; with two ephemeral ports (or two
// well-known ones), the first orientation seen is. Neither rule can
// change its answer later, so every later packet reads the answer back.
func (f *monFlow) isClient(o layers.Orientation) bool {
	switch o {
	case f.clientSide:
		return true
	case f.serverSide:
		return false
	}
	k := f.key(o)
	switch {
	case k.DstPort < 1024 && k.SrcPort >= 1024,
		!(k.SrcPort < 1024 && k.DstPort >= 1024) && f.clientSide == layers.Unrelated:
		f.clientSide, f.clientKey = o, k
		return true
	}
	f.serverSide = o
	return false
}

// onClientRecord absorbs one completed client-side record: keep it in the
// flow's observation, anchor the session clock, classify application data
// and count its in-band reports (the counters Close and the window read),
// emit detection and running choice events, and extend the live
// alignment. Without an event callback only the counters are kept.
func (m *Monitor) onClientRecord(f *monFlow, rec tlsrec.Record) {
	f.recs = append(f.recs, rec)
	if f.anchor.IsZero() {
		f.anchor = rec.Time // first client record — the decode anchor
	}
	if rec.Type != tlsrec.ContentApplicationData {
		return
	}
	soft, _ := m.atk.Classifier.(SoftClassifier)
	cr := classifyRecord(rec, m.atk.Classifier, soft)
	idx := f.classified
	f.classified++
	if f.firstAppAt.IsZero() {
		f.firstAppAt = rec.Time // starts the quiet-period rejection clock
	}

	hard := cr.Class == ClassType1 || cr.Class == ClassType2
	if hard {
		f.hards++
		if !f.detected {
			f.detected = true
			m.emit(FlowDetected{Flow: f.clientKey, At: rec.Time, Length: rec.Length, Class: cr.Class})
		}
		if cr.Class == ClassType1 {
			f.choices++
			f.latestDefault = true
		} else {
			f.latestDefault = false
		}
	}
	if m.onEvent == nil || f.rejected {
		// No callback, or a flow in rejected probation whose hypothesis
		// engine is paused: counters are all that is needed.
		return
	}
	ev, ok := observedEventFrom(cr, idx, f.anchor)
	if !ok {
		return
	}
	if t := m.liveTable(); t != nil {
		if f.pa == nil {
			f.pa = newPrefixAligner(t)
		}
		f.pa.observe(ev)
	}
	if !hard || f.choices == 0 {
		// An orphan type-2 (no type-1 opened a choice yet) is a classifier
		// slip — the plain decode ignores it, and there is no choice to
		// report an event about.
		return
	}
	ci := ChoiceInferred{
		Flow:   f.clientKey,
		At:     rec.Time,
		Choice: f.choices - 1,
	}
	if f.pa != nil {
		// A type-1 report confirms every *earlier* choice (had the viewer
		// gone non-default at the latest one, its type-2 would still be
		// pending); a type-2 confirms its own choice too. The margin is
		// computed over exactly the confirmed prefix.
		confirmed := f.choices
		if cr.Class == ClassType1 {
			confirmed--
		}
		best, margin := f.pa.ranking(confirmed)
		ci.Decisions = append([]bool(nil), f.pa.table.Paths[best].Decisions...)
		ci.DecodeMargin = margin
		if ci.Choice >= 0 && ci.Choice < len(ci.Decisions) {
			ci.TookDefault = ci.Decisions[ci.Choice]
		}
	} else {
		ci.TookDefault = f.latestDefault
	}
	m.emit(ci)
}

// liveTable lazily builds the shared decoding table for the live engine.
// A failed build is remembered and not retried on every record.
func (m *Monitor) liveTable() *PathTable {
	if m.tableTried || m.atk.Graph == nil {
		return m.table
	}
	m.tableTried = true
	t, err := m.atk.pathTable()
	if err != nil {
		return nil // fall back to the plain running decode
	}
	m.table = t
	return t
}

// viable reports whether a flow is a complete, attackable conversation:
// both directions seen and parsable as the flow's transport.
func (f *monFlow) viable() bool {
	if f.quic != nil {
		return f.clientSide != layers.Unrelated && f.serverSide != layers.Unrelated
	}
	return f.client.stream != nil && f.server.stream != nil &&
		f.client.sc.Err() == nil && f.server.sc.Err() == nil
}

// Stats snapshots the monitor's flow table and retained memory.
func (m *Monitor) Stats() MonitorStats {
	st := MonitorStats{
		Flows:             len(m.flows),
		RejectedFlows:     m.rejectedNow,
		FinalizedSessions: m.finalized,
		ExpiredFlows:      m.expired,
		Sweeps:            m.sweeps,
		SweepTouched:      m.sweepTouch,
	}
	if m.cr != nil {
		st.RetainedBytes += int64(m.cr.Buffered())
	}
	for _, f := range m.flows {
		if !f.dead {
			st.LiveFlows++
		}
		for _, d := range []*monDir{&f.client, &f.server} {
			if d.stream != nil {
				st.RetainedBytes += d.stream.BufferedBytes()
			}
		}
		st.RetainedBytes += int64(len(f.recs)) * recordFootprint
	}
	return st
}

// Close finalizes the monitor: it verifies the feed ended on a clean pcap
// boundary, concludes every flow still open, and returns the Inference of
// the attacked flow. One rule applies in both modes. The flows still open
// conclude in first-seen order (the order the timing wheel uses, so a
// 5-tuple reused after its first conversation ended closes after the
// flows first seen before its reuse), in three steps, after every open
// QUIC burst closes (the silence that would have closed it will never be
// observed):
//
//  1. every viable flow with in-band reports is inferred and emits a
//     SessionFinalized;
//  2. if no session has finalized over the whole feed, the largest viable
//     conversation still open is attacked and emits a SessionFinalized,
//     unless a flow that already concluded without a session carried at
//     least as many bytes;
//  3. every other flow emits FlowExpired with Reason "close".
//
// Sessions rank by (matched, score), and of equals the first finalized
// wins; of equal-size conversations the first seen is attacked, and one
// of zero bytes is not. With still no session, the largest flow that
// expired earlier is the answer and emits its SessionFinalized now. For a
// single-conversation capture the result is byte-identical to the
// one-shot Attacker.InferPcap.
//
// The returned *Inference is the very pointer the attacked flow's
// SessionFinalized carried, so an OnEvent callback names the attacked
// flow by e.Inference == inf. When no flow yielded an Inference, Close
// returns the first error Infer returned, or ErrNoTLSConversation when
// there was no conversation to attack.
func (m *Monitor) Close() (*Inference, error) {
	if m.closed {
		return nil, errors.New("attack: monitor already closed")
	}
	m.closed = true
	if m.err == nil && m.cr != nil {
		if err := m.cr.TailErr(); err != nil {
			m.err = wrapReadErr(m.cr.HeaderDone(), err)
		}
	}
	if m.err != nil {
		return nil, m.err
	}
	open := m.openFlows()
	for _, f := range open {
		m.flushQUIC(f)
	}
	m.closeFlows(open, m.sessionReady)
	if m.best == nil {
		if f := m.largestOpen(open); f != nil && f.totalBytes() > m.fallback.weight() {
			m.finalizeLargest(f)
		}
	}
	m.closeFlows(open, func(*monFlow) bool { return true })
	if m.best != nil {
		return m.best.inf, nil
	}
	if v := m.fallback; v != nil {
		m.finalized++
		m.emit(SessionFinalized{Flow: v.flow, Inference: v.inf})
		return v.inf, nil
	}
	if m.inferErr != nil {
		return nil, m.inferErr
	}
	return nil, ErrNoTLSConversation
}

// openFlows lists the tracked flows in first-seen order.
func (m *Monitor) openFlows() []*monFlow {
	fs := make([]*monFlow, 0, len(m.flows))
	for _, f := range m.flows {
		fs = append(fs, f)
	}
	slices.SortFunc(fs, func(a, b *monFlow) int { return cmp.Compare(a.firstSeq, b.firstSeq) })
	return fs
}

// isOpen reports whether f is still tracked, not yet concluded.
func (m *Monitor) isOpen(f *monFlow) bool { return m.flows[f.canonical] == f }

// closeFlows finalizes, in order, every flow of fs still open that keep
// accepts, with reason "close".
func (m *Monitor) closeFlows(fs []*monFlow, keep func(*monFlow) bool) {
	for _, f := range fs {
		if m.isOpen(f) && keep(f) {
			m.finalizeFlow(f, m.clock, "close")
		}
	}
}

// largestOpen is the largest viable flow of fs still open, the first of
// equals — the candidate for the largest-conversation fallback at close.
func (m *Monitor) largestOpen(fs []*monFlow) *monFlow {
	var largest *monFlow
	for _, f := range fs {
		if m.isOpen(f) && !f.dead && f.viable() && (largest == nil || f.totalBytes() > largest.totalBytes()) {
			largest = f
		}
	}
	return largest
}

// finalizeLargest runs the largest-conversation attack on one still-open
// flow and finalizes it. A failed Infer leaves the flow to expire.
func (m *Monitor) finalizeLargest(f *monFlow) {
	if inf := m.infer(f); inf != nil {
		m.noteFinal(&verdict{inf: inf, flow: f.clientKey})
		m.dropFlow(f)
	}
}

// totalBytes is the conversation's delivered byte count, both directions.
func (f *monFlow) totalBytes() int64 {
	if f.quic != nil {
		return f.quic.clientBytes + f.quic.serverBytes
	}
	var n int64
	if f.client.stream != nil {
		n += f.client.stream.Len()
	}
	if f.server.stream != nil {
		n += f.server.stream.Len()
	}
	return n
}

package main

import (
	"bytes"
	"fmt"
	"io"
	"net/netip"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/attack"
	"repro/internal/capture"
	"repro/internal/dataset"
	"repro/internal/layers"
	"repro/internal/media"
	"repro/internal/pcapio"
	"repro/internal/profiles"
	"repro/internal/quicrec"
	"repro/internal/script"
	"repro/internal/tcpreasm"
	"repro/internal/tlsrec"
)

const (
	tapSessions   = 20
	tapSpacing    = 2 * time.Minute // session starts on the capture clock
	tapNoiseFlows = 3
	tapChunk      = 64 << 10             // wmattack -live default chunk
	tapRate       = 256 << 20            // paced feed, bytes per second
	sampleEvery   = (1 << 20) / tapChunk // Stats samples, every MiB
	minPaced      = 4                    // paced passes, for >= 1000 events
	minUnpaced    = 3
)

// chunkInterval is the paced schedule's gap between chunk due times.
var chunkInterval = time.Duration(tapChunk) * time.Second / tapRate

// tapSession is one interactive session on the tap.
type tapSession struct {
	client layers.FlowKey
	truth  []bool
}

// tapInput is the live-tap workload's input: one merged capture.
type tapInput struct {
	data     []byte
	packets  int
	sessions []tapSession
	byClient map[layers.FlowKey]int
	// chunkTS[k] is the latest timestamp of a packet whose last byte is
	// in chunk k. The merged capture is in timestamp order, so the chunk
	// that carried the packet stamped at is the first k with
	// chunkTS[k] >= at.
	chunkTS []time.Time
	// ref is the event stream of an unsharded monitor over the tap. It
	// emits each event while feeding the chunk that completed the event's
	// triggering packet (chunks() for events emitted by Close), so
	// ref[i].chunk is the chunk every pass times event i from.
	ref []tapEvent
}

func (in *tapInput) chunks() int { return (len(in.data) + tapChunk - 1) / tapChunk }

func (in *tapInput) chunk(k int) []byte {
	return in.data[k*tapChunk : min((k+1)*tapChunk, len(in.data))]
}

// chunkOf maps an event time to the chunk that carried its packet.
func (in *tapInput) chunkOf(at time.Time) int {
	k := sort.Search(len(in.chunkTS), func(i int) bool { return !in.chunkTS[i].Before(at) })
	return min(k, len(in.chunkTS)-1)
}

// mergeSource is one session's capture, read packet by packet.
type mergeSource struct {
	rd   *pcapio.Reader
	next pcapio.Record
}

// merger interleaves session captures by timestamp into one pcap.
type merger struct {
	out     bytes.Buffer
	w       *pcapio.Writer
	srcs    []*mergeSource
	packets int
	chunkTS []time.Time
}

func newMerger(sizeHint int) *merger {
	m := &merger{}
	m.out.Grow(sizeHint)
	m.w = pcapio.NewWriter(&m.out)
	return m
}

func (m *merger) add(data []byte) error {
	rd, err := pcapio.NewBytesReader(data)
	if err != nil {
		return err
	}
	s := &mergeSource{rd: rd}
	if ok, err := s.advance(); err != nil || !ok {
		return err
	}
	m.srcs = append(m.srcs, s)
	return nil
}

func (s *mergeSource) advance() (bool, error) {
	rec, err := s.rd.Next()
	if err == io.EOF {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	s.next = rec
	return true, nil
}

// emit writes, in timestamp order, every pending packet stamped before
// limit (all of them when all is set). Ties keep the earlier session
// first.
func (m *merger) emit(limit time.Time, all bool) error {
	for len(m.srcs) > 0 {
		best := 0
		for i, s := range m.srcs {
			if s.next.Timestamp.Before(m.srcs[best].next.Timestamp) {
				best = i
			}
		}
		s := m.srcs[best]
		if !all && !s.next.Timestamp.Before(limit) {
			return nil
		}
		if err := m.w.WritePacket(s.next.Timestamp, s.next.Data); err != nil {
			return err
		}
		m.packets++
		k := (m.out.Len() - 1) / tapChunk
		for len(m.chunkTS) <= k {
			m.chunkTS = append(m.chunkTS, time.Time{})
		}
		m.chunkTS[k] = s.next.Timestamp
		ok, err := s.advance()
		if err != nil {
			return err
		}
		if !ok {
			m.srcs = slices.Delete(m.srcs, best, best+1)
		}
	}
	return nil
}

// buildTap renders the live-tap input: sessions Fig2Ubuntu TLS 1.2
// sessions from dataset.Stream, started tapSpacing apart on the capture
// clock, each from its own client address and port with tapNoiseFlows
// noise flows (TCP for even sessions, QUIC for odd), merged by timestamp.
func buildTap(seed uint64, sessions int, enc *media.Encoding) (*tapInput, error) {
	in := &tapInput{byClient: map[layers.FlowKey]int{}}
	m := newMerger(sessions * 24 << 20)
	var zero time.Time
	var buf bytes.Buffer
	cfg := dataset.Config{N: sessions, Seed: seed*8191 + 7, Encoding: enc,
		Conditions: []profiles.Condition{profiles.Fig2Ubuntu}, Workers: 2}
	err := dataset.Stream(cfg, func(p dataset.Point) error {
		s := p.Index
		tr := p.Trace
		ep := capture.DefaultEndpoints()
		a := ep.ClientAddr.As4()
		a[3] += byte(s)
		ep.ClientAddr = netip.AddrFrom4(a)
		ep.ClientPort += uint16(s * 16)
		start := tr.ClientToServer.Writes[0].Time
		if zero.IsZero() {
			zero = start
		}
		offset := time.Duration(s)*tapSpacing - start.Sub(zero)
		transport := quicrec.TransportTCP
		if s%2 == 1 {
			transport = quicrec.TransportQUIC
		}
		buf.Reset()
		err := capture.WritePcapMulti(&buf, tr, capture.MultiOptions{
			Options:    capture.Options{Seed: seed*31 + uint64(s), Endpoints: ep, TimeOffset: offset},
			NoiseFlows: tapNoiseFlows, Transport: transport, TransportSet: true,
		})
		if err != nil {
			return err
		}
		key := layers.FlowKey{SrcAddr: ep.ClientAddr, DstAddr: ep.ServerAddr, SrcPort: ep.ClientPort, DstPort: ep.ServerPort}
		in.byClient[key] = len(in.sessions)
		in.sessions = append(in.sessions, tapSession{client: key, truth: tr.GroundTruthDecisions()})
		tr.Release()
		// Everything stamped well before this session's start is final:
		// later sessions start later still.
		if err := m.emit(start.Add(offset-10*time.Second), false); err != nil {
			return err
		}
		return m.add(bytes.Clone(buf.Bytes()))
	})
	if err != nil {
		return nil, err
	}
	if err := m.emit(time.Time{}, true); err != nil {
		return nil, err
	}
	in.data, in.packets, in.chunkTS = m.out.Bytes(), m.packets, m.chunkTS
	// A chunk that completes no packet inherits its predecessor's time.
	for k := 1; k < len(in.chunkTS); k++ {
		if in.chunkTS[k].IsZero() {
			in.chunkTS[k] = in.chunkTS[k-1]
		}
	}
	return in, nil
}

// eventAt returns the capture time an event carries, if any.
func eventAt(ev attack.Event) (time.Time, bool) {
	switch e := ev.(type) {
	case attack.FlowDetected:
		return e.At, true
	case attack.ChoiceInferred:
		return e.At, true
	case attack.FlowExpired:
		return e.At, true
	case attack.QUICFlowObserved:
		return e.At, true
	case attack.SessionFinalized:
		return time.Time{}, false
	}
	return time.Time{}, false
}

// eventName is the per-layer metric suffix of an event's type.
func eventName(ev attack.Event) string {
	switch ev.(type) {
	case attack.FlowDetected:
		return "flow_detected"
	case attack.ChoiceInferred:
		return "choice_inferred"
	case attack.SessionFinalized:
		return "session_finalized"
	case attack.FlowExpired:
		return "flow_expired"
	case attack.QUICFlowObserved:
		return "quic_flow_observed"
	}
	return "unknown"
}

// eventKey renders what the shard-equivalence guard compares: type,
// flow, At and decisions.
func eventKey(ev attack.Event) string {
	switch e := ev.(type) {
	case attack.FlowDetected:
		return fmt.Sprintf("detected %v at=%d class=%v len=%d", e.Flow, e.At.UnixNano(), e.Class, e.Length)
	case attack.ChoiceInferred:
		return fmt.Sprintf("choice %v at=%d #%d %v", e.Flow, e.At.UnixNano(), e.Choice, e.Decisions)
	case attack.SessionFinalized:
		var d []bool
		if e.Inference != nil {
			d = e.Inference.Decisions
		}
		return fmt.Sprintf("finalized %v %v", e.Flow, d)
	case attack.FlowExpired:
		return fmt.Sprintf("expired %v at=%d %s", e.Flow, e.At.UnixNano(), e.Reason)
	case attack.QUICFlowObserved:
		return fmt.Sprintf("quic %v at=%d", e.Flow, e.At.UnixNano())
	}
	return fmt.Sprintf("unknown %T", ev)
}

// tapEvent is one OnEvent call.
type tapEvent struct {
	ev    attack.Event
	at    time.Time // when OnEvent ran
	chunk int       // chunk being fed then (chunks() during Close)
}

// passResult is what one pass over the tap saw.
type passResult struct {
	events   []tapEvent
	t0       time.Time     // first chunk due (paced) or first Feed (unpaced)
	wall     time.Duration // first Feed to the return of Close
	late     []time.Duration
	feedBusy time.Duration // summed Feed and Close time
	closeDur time.Duration
	samples  []attack.MonitorStats
	final    attack.MonitorStats
	allocs   float64 // bytes allocated during the pass (traced passes)
	closeErr error
}

// passOpts selects how a pass runs.
type passOpts struct {
	paced  bool
	sample bool    // take Stats every sampleEvery chunks (untimed passes only)
	t      *tracer // spans around Feed and Close
	req    string
}

// pass feeds the whole tap through a fresh Monitor with Window{}
// defaults and OnEvent set, as wmattack -live does.
func (in *tapInput) pass(atk *attack.Attacker, shards int, o passOpts) (*passResult, error) {
	n := in.chunks()
	res := &passResult{events: make([]tapEvent, 0, 1024)}
	if o.paced {
		res.late = make([]time.Duration, 0, n)
	}
	cur := 0
	m := attack.NewMonitor(atk, attack.MonitorOptions{
		Window: &attack.Window{},
		Shards: shards,
		OnEvent: func(ev attack.Event) {
			res.events = append(res.events, tapEvent{ev: ev, at: time.Now(), chunk: cur})
		},
	})
	if o.t != nil {
		o.t.spans = slices.Grow(o.t.spans, n+1)
	}
	runtime.GC()
	allocs := readMetric(allocsMetric)
	res.t0 = time.Now().Add(time.Millisecond)
	if !o.paced {
		res.t0 = time.Now()
	}
	for k := 0; k < n; k++ {
		cur = k
		if o.paced {
			due := res.t0.Add(time.Duration(k) * chunkInterval)
			sleepUntil(due)
			res.late = append(res.late, time.Since(due))
		}
		s := time.Now()
		if err := m.Feed(in.chunk(k)); err != nil {
			return nil, fmt.Errorf("chunk %d: %w", k, err)
		}
		d := time.Since(s)
		res.feedBusy += d
		if o.t != nil {
			o.t.add("attack.Monitor.Feed", fmt.Sprintf("%s/chunk-%d", o.req, k), 0,
				int64(s.Sub(o.t.epoch)), int64(s.Add(d).Sub(o.t.epoch)))
		}
		if o.sample && (k+1)%sampleEvery == 0 {
			res.samples = append(res.samples, m.Stats())
		}
	}
	cur = n
	s := time.Now()
	_, res.closeErr = m.Close()
	res.closeDur = time.Since(s)
	res.feedBusy += res.closeDur
	res.wall = time.Since(res.t0)
	res.allocs = readMetric(allocsMetric) - allocs
	if o.t != nil {
		o.t.add("attack.Monitor.Close", o.req, 0, int64(s.Sub(o.t.epoch)), int64(s.Add(res.closeDur).Sub(o.t.epoch)))
	}
	res.final = m.Stats()
	if o.sample {
		res.samples = append(res.samples, res.final)
	}
	return res, nil
}

// check counts the pass's sessions as operations: each must end in a
// SessionFinalized for its client flow carrying the true decisions.
func (in *tapInput) check(res *passResult, label string, r *report) {
	final := make([]*attack.Inference, len(in.sessions))
	seen := make([]bool, len(in.sessions))
	for _, e := range res.events {
		if sf, ok := e.ev.(attack.SessionFinalized); ok {
			if s, ok := in.byClient[sf.Flow]; ok {
				final[s], seen[s] = sf.Inference, true
			}
		}
	}
	if res.closeErr != nil {
		r.linef("%s: Close: %v", label, res.closeErr)
	}
	for s, sess := range in.sessions {
		r.attempted++
		switch {
		case !seen[s] || final[s] == nil:
			r.fail("%s session %d (%v): no SessionFinalized", label, s, sess.client)
		case !slices.Equal(final[s].Decisions, sess.truth):
			r.fail("%s session %d: decisions %v, truth %v", label, s, final[s].Decisions, sess.truth)
		}
	}
}

// latencies returns, for each event that carries At, the time from the
// due time of the chunk that completed its triggering packet to the
// OnEvent call. A pass whose event stream differs from the reference
// pass's fails and yields nothing.
func (in *tapInput) latencies(res *passResult, label string, r *report) []float64 {
	r.attempted++
	if diff := diffEvents(in.ref, res.events); diff != "" {
		r.fail("%s: events differ from the reference pass: %s", label, diff)
		return nil
	}
	var out []float64
	last := in.chunks() - 1
	for i, e := range res.events {
		if _, ok := eventAt(e.ev); ok {
			// Close delivers no packet: its events are timed from the last
			// chunk, which carried the last data.
			k := min(in.ref[i].chunk, last)
			due := res.t0.Add(time.Duration(k) * chunkInterval)
			out = append(out, ms(e.at.Sub(due)))
		}
	}
	return out
}

// perEvent takes each event's median latency over the passes. Every pass
// emits the same events, so a stall that hits some passes does not move
// an event's figure; the percentiles are then taken across events.
func perEvent(passes [][]float64) []float64 {
	var out []float64
	for i := 0; ; i++ {
		var v []float64
		for _, p := range passes {
			if i < len(p) {
				v = append(v, p[i])
			}
		}
		if len(v) == 0 {
			return out
		}
		out = append(out, median(v))
	}
}

// tapFigures is one measurement of the paced and unpaced passes.
type tapFigures struct {
	lat      []float64 // ms per event, its median over the paced passes
	passLat  [][]float64
	mbps     []float64 // unpaced passes
	lagMax   time.Duration
	late     int
	paced    int
	unpaced  int
	busyPct  []float64 // Feed and Close time ÷ wall time, paced passes
	closeMS  []float64
	allocs   float64
	fedBytes float64
}

// measureTap runs one paced pass, then three unpaced ones, and so on until
// budget is spent and at least minPaced and minUnpaced passes ran, so the
// medians draw on samples spread over the whole run.
func measureTap(in *tapInput, atk *attack.Attacker, shards int, budget time.Duration, t *tracer, tag string, r *report) (*tapFigures, error) {
	f := &tapFigures{}
	start := time.Now()
	for i := 0; f.paced < minPaced || f.unpaced < minUnpaced || time.Since(start) < budget; i++ {
		paced := i%4 == 0
		req := fmt.Sprintf("%s/unpaced-%d", tag, f.unpaced)
		if paced {
			req = fmt.Sprintf("%s/paced-%d", tag, f.paced)
		}
		res, err := in.pass(atk, shards, passOpts{paced: paced, t: t, req: req})
		if err != nil {
			return nil, err
		}
		in.check(res, req, r)
		f.closeMS = append(f.closeMS, ms(res.closeDur))
		f.allocs += res.allocs
		f.fedBytes += float64(len(in.data))
		if !paced {
			f.unpaced++
			f.mbps = append(f.mbps, float64(len(in.data))/1e6/res.wall.Seconds())
			continue
		}
		f.paced++
		if l := in.latencies(res, req, r); l != nil {
			f.passLat = append(f.passLat, l)
		}
		for _, l := range res.late {
			f.lagMax = max(f.lagMax, l)
			if l > chunkInterval {
				f.late++
			}
		}
		f.busyPct = append(f.busyPct, 100*float64(res.feedBusy)/float64(res.wall))
	}
	f.lat = perEvent(f.passLat)
	return f, nil
}

func runTap(cfg config, shards int) (*report, error) {
	r := newReport()
	var t *tracer
	if cfg.trace {
		t = newTracer()
		r.spans = t
	}
	atks, st, err := trainAttackers([]profiles.Condition{profiles.Fig2Ubuntu}, t)
	if err != nil {
		return nil, err
	}
	st.report(r)
	atk := atks[profiles.Fig2Ubuntu]
	enc := media.EncodeCached(script.Bandersnatch(), media.DefaultLadder, cfg.seed^0xabcd)
	in, err := buildTap(cfg.seed, tapSessions, enc)
	if err != nil {
		return nil, err
	}
	debug.FreeOSMemory() // drop the generator's garbage before the passes

	// Untimed reference pass through an unsharded monitor, then, for the
	// sharded workload, an untimed pass through the sharded one that must
	// emit the identical event stream (the shard-equivalence guard). The
	// workload's own monitor samples Stats at fixed byte offsets.
	ref, err := in.pass(atk, 0, passOpts{sample: shards == 0, req: "reference"})
	if err != nil {
		return nil, err
	}
	in.check(ref, "reference", r)
	in.ref = ref.events
	warm := ref
	if shards > 0 {
		warm, err = in.pass(atk, shards, passOpts{sample: true, req: "warm"})
		if err != nil {
			return nil, err
		}
		in.check(warm, "sharded warm-up", r)
		r.attempted++
		if diff := diffEvents(ref.events, warm.events); diff != "" {
			r.fail("shard equivalence: %s", diff)
		} else {
			r.linef("shard equivalence: %d events identical to Shards 0", len(ref.events))
		}
	}
	// The window's footprint: retained bytes per live flow, averaged over
	// the samples. The total follows how many sessions overlap, which the
	// seed decides; the share per flow is the monitor's own.
	var retained, perFlow, peak, flows, live float64
	perShard := make([]float64, shards)
	for _, s := range warm.samples {
		retained += float64(s.RetainedBytes) / float64(len(warm.samples))
		if s.LiveFlows > 0 {
			perFlow += float64(s.RetainedBytes) / float64(s.LiveFlows) / float64(len(warm.samples))
		}
		peak = max(peak, float64(s.RetainedBytes))
		flows = max(flows, float64(s.Flows))
		live = max(live, float64(s.LiveFlows))
		for i, sh := range s.Shards {
			perShard[i] += float64(sh.Flows)
		}
	}
	counts := map[string]float64{}
	for _, e := range warm.events {
		counts["attack.monitor.events."+eventName(e.ev)]++
		if fe, ok := e.ev.(attack.FlowExpired); ok {
			counts["attack.monitor.expired."+fe.Reason]++
		}
	}
	r.shapef("tap", "%d sessions %v apart, %d noise flows each (TCP even, QUIC odd)", tapSessions, tapSpacing, tapNoiseFlows)
	r.shapef("bytes", "%d (%.1f MB), %d packets, %d chunks of %d KiB", len(in.data), float64(len(in.data))/1e6, in.packets, in.chunks(), tapChunk>>10)
	r.shapef("flows", "peak %d tracked, %d live (Stats every %d MiB)", int(flows), int(live), sampleEvery*tapChunk>>20)
	r.shapef("events", "%d per pass", len(warm.events))
	r.linef("retained: mean %.1f KiB, %.2f KiB per live flow, peak %.1f KiB over %d samples",
		retained/1024, perFlow/1024, peak/1024, len(warm.samples))

	r.shapef("monitor", "Window{} defaults, OnEvent set, Shards %d; paced at %d MiB/s", shards, tapRate>>20)

	budget := cfg.budget
	if cfg.trace {
		budget /= 2
	}
	plain, err := measureTap(in, atk, shards, budget, nil, "run", r)
	if err != nil {
		return nil, err
	}
	r.e2e["throughput_mb_s"] = median(plain.mbps)
	r.e2e["latency_ms_p50"] = quantile(plain.lat, 0.50)
	r.e2e["latency_ms_p90"] = quantile(plain.lat, 0.90)
	r.e2e["mem_mib"] = mib(perFlow)
	r.linef("end-to-end: %.1f MB/s (median of %d unpaced passes), event latency p50 %.3f ms p90 %.3f ms p99 %.3f ms max %.3f ms over %d events, each the median of %d paced passes",
		median(plain.mbps), plain.unpaced, r.e2e["latency_ms_p50"], r.e2e["latency_ms_p90"], quantile(plain.lat, 0.99),
		quantile(plain.lat, 1), len(plain.lat), len(plain.passLat))

	r.linef("unpaced passes, MB/s: %.0f", plain.mbps)
	r.linef("generator: max lag %.3f ms, %d chunks more than one interval late", ms(plain.lagMax), plain.late)
	if !cfg.trace {
		return r, nil
	}

	traced, err := measureTap(in, atk, shards, budget, t, "traced", r)
	if err != nil {
		return nil, err
	}
	r.layer["trace.overhead_pct"] = 100 * (median(plain.mbps) - median(traced.mbps)) / median(plain.mbps)
	r.linef("traced end-to-end: %.1f MB/s, events p50 %.3f ms (untraced %.1f MB/s)",
		median(traced.mbps), quantile(traced.lat, 0.5), median(plain.mbps))
	for _, name := range monitorLiveMetrics {
		if strings.HasPrefix(name, "attack.monitor.events.") || strings.HasPrefix(name, "attack.monitor.expired.") {
			r.layer[name] = counts[name]
		}
	}
	var pacedFeed []float64
	for _, s := range t.spans {
		if s.Name == "attack.Monitor.Feed" && strings.HasPrefix(s.Req, "traced/paced-") {
			pacedFeed = append(pacedFeed, float64(s.BusyNS)/1e3)
		}
	}
	r.layer["attack.monitor.feed_us_p50"] = quantile(pacedFeed, 0.50)
	r.layer["attack.monitor.feed_us_p99"] = quantile(pacedFeed, 0.99)
	r.layer["attack.monitor.busy_pct"] = median(traced.busyPct)
	r.layer["attack.monitor.close_ms"] = median(traced.closeMS)
	r.layer["attack.monitor.alloc_kib_per_mib"] = (traced.allocs / 1024) / mib(traced.fedBytes)
	r.layer["attack.monitor.flows_peak"] = flows
	r.layer["attack.monitor.sweep_touched"] = float64(warm.final.SweepTouched)
	r.layer["gen.lag_ms_max"] = ms(max(plain.lagMax, traced.lagMax))
	r.layer["gen.late_chunks"] = float64(plain.late+traced.late) / float64(plain.paced+traced.paced)
	if shards > 0 {
		var sum, top float64
		for _, v := range perShard {
			sum += v
			top = max(top, v)
		}
		if sum > 0 {
			r.layer["attack.shard.flows_skew"] = top / (sum / float64(shards))
		}
	} else {
		r.idle("unsharded monitor", "attack.shard.flows_skew")
	}

	c := replayTap(t, atk, in)
	c.report(r, len(in.sessions))
	monitorPerPass := median(traced.mbps)
	passMS := float64(len(in.data)) / 1e6 / monitorPerPass * 1e3
	r.layer["self.attack_monitor_ms_per_op"] = (passMS - ms(c.layerBusy)) / float64(len(in.sessions))
	r.linef("replay: %d packets, %d datagrams, %d bursts; monitor pass %.1f ms vs replayed layers %.1f ms",
		c.packets, c.datagrams, c.bursts, passMS, ms(c.layerBusy))
	r.idle("not measurable from outside: the live engine decodes inside Monitor (prefix aligner per record, PathTable.Decode at finalization)",
		"attack.decode_us_per_call", "attack.decode_calls", "self.attack_decode_ms_per_op")
	r.idle("infer-batch only", "attack.monitor.residual_ms_per_capture")
	r.idle("corpus-only layer", simulationMetrics...)
	return r, nil
}

// diffEvents describes the first difference between two event streams.
func diffEvents(want, got []tapEvent) string {
	for i := 0; i < min(len(want), len(got)); i++ {
		if w, g := eventKey(want[i].ev), eventKey(got[i].ev); w != g {
			return fmt.Sprintf("event %d: want %q, got %q", i, w, g)
		}
	}
	if len(want) != len(got) {
		return fmt.Sprintf("%d events, want %d", len(got), len(want))
	}
	return ""
}

// udpState is one replayed UDP flow.
type udpState struct {
	sniffed, quic bool
	client        layers.FlowKey
	seg           attack.BurstSegmenter
}

// replayTap runs the tap chunk by chunk through the layers the Monitor
// uses — ChunkReader.Feed and Next, DecodePacket, Assembler.Feed and
// RecordScanner.Feed for TCP, quicrec.Sniff and BurstSegmenter.Feed for
// UDP, and Classify on every client record or burst — with one span per
// layer under a root span per chunk.
func replayTap(t *tracer, atk *attack.Attacker, in *tapInput) replayCounts {
	var c replayCounts
	cr := pcapio.NewChunkReader()
	asm := tcpreasm.NewAssembler()
	asm.SetStablePayloads(true) // ChunkReader's buffer is grow-only, as in Monitor
	dirs := map[layers.FlowKey]*dirState{}
	taken := map[layers.FlowKey]int{}
	clients := map[layers.FlowKey]layers.FlowKey{} // canonical key → client direction
	udp := map[layers.FlowKey]*udpState{}
	copyC := calls{name: "pcapio.ChunkReader.Feed"}
	next := calls{name: "pcapio.ChunkReader.Next"}
	dec := calls{name: "layers.DecodePacket"}
	feed := calls{name: "tcpreasm.Assembler.Feed"}
	scan := calls{name: "tlsrec.RecordScanner.Feed"}
	sniff := calls{name: "quicrec.Sniff"}
	burst := calls{name: "attack.BurstSegmenter.Feed"}
	cls := calls{name: "attack.Classifier.Classify"}
	all := []*calls{&copyC, &next, &dec, &feed, &scan, &sniff, &burst, &cls}
	classify := func(n int) {
		s := t.now()
		class, _ := atk.Classifier.Classify(n)
		cls.note(s, t.now())
		if class == attack.ClassType1 || class == attack.ClassType2 {
			c.inband++
		}
	}
	t.spans = slices.Grow(t.spans, in.chunks()*(len(all)+1))
	for k := 0; k < in.chunks(); k++ {
		req := fmt.Sprintf("replay/chunk-%d", k)
		root := t.open("harness.replay", req, 0)
		chunk := in.chunk(k)
		copyC.time(t, func() { cr.Feed(chunk) })
		c.copiedBytes += int64(len(chunk))
		for {
			s := t.now()
			rec, ok, err := cr.Next()
			next.note(s, t.now())
			if err != nil || !ok {
				break
			}
			c.packets++
			s = t.now()
			p, err := layers.DecodePacket(rec.Timestamp, rec.Data)
			dec.note(s, t.now())
			if err != nil {
				c.undecodable++
				continue
			}
			canon, _ := p.Flow().Canonical()
			if p.Proto == layers.IPProtocolUDP {
				u := udp[canon]
				if u == nil {
					u = &udpState{client: p.Flow()}
					udp[canon] = u
				}
				if !u.sniffed {
					u.sniffed = true
					sniff.time(t, func() { u.quic = quicrec.Sniff(p.Payload) })
					if u.quic {
						c.sniffed++
					}
				}
				if !u.quic || p.Flow() != u.client || len(p.Payload) == 0 || quicrec.IsLongHeader(p.Payload[0]) {
					continue
				}
				c.datagrams++
				s := t.now()
				b, ok := u.seg.Feed(p.Timestamp, len(p.Payload))
				burst.note(s, t.now())
				if ok {
					c.bursts++
					classify(b.Bytes)
				}
				continue
			}
			client, ok := clients[canon]
			if !ok {
				client = p.Flow() // the first packet is the client's SYN
				clients[canon] = client
			}
			s = t.now()
			st := asm.Feed(p)
			feed.note(s, t.now())
			c.segments++
			d := dirs[st.Key]
			if d == nil {
				d = &dirState{stream: st, sc: tlsrec.NewRecordScanner()}
				dirs[st.Key] = d
			}
			for _, ch := range st.DeliveredChunks(d.consumed) {
				d.consumed++
				if d.sc.Err() == nil {
					s := t.now()
					d.sc.Feed(ch.Time, ch.Data)
					scan.note(s, t.now())
				}
			}
			st.ReleaseThrough(d.consumed)
			recs := d.sc.Records()
			c.records += int64(d.sc.Released() + len(recs) - taken[st.Key])
			for _, rec := range recs[taken[st.Key]-d.sc.Released():] {
				if st.Key == client && rec.Type == tlsrec.ContentApplicationData {
					c.appRecords++
					classify(rec.Length)
				}
			}
			taken[st.Key] = d.sc.Released() + len(recs)
			d.sc.ReleaseRecords(taken[st.Key])
		}
		for _, a := range all {
			c.layerBusy += time.Duration(a.busy)
			t.flush(a, req, root)
		}
		t.close(root)
	}
	// Flows end with the tap: close each QUIC client's open burst.
	for _, u := range udp {
		if u.quic {
			if b, ok := u.seg.Flush(); ok {
				c.bursts++
				classify(b.Bytes)
			}
		}
	}
	c.layerBusy += time.Duration(cls.busy)
	t.flush(&cls, "replay/flush", 0)
	for _, d := range dirs {
		c.gaps += int64(d.stream.Gaps())
	}
	c.copyT, c.next, c.decode = sumBusy(t, copyC.name), sumBusy(t, next.name), sumBusy(t, dec.name)
	c.reasm, c.scan = sumBusy(t, feed.name), sumBusy(t, scan.name)
	c.sniff, c.burst, c.classify = sumBusy(t, sniff.name), sumBusy(t, burst.name), sumBusy(t, cls.name)
	c.harness = t.selfByName()["harness.replay"]
	return c
}

// sumBusy totals the busy time of the replay spans with the given name.
func sumBusy(t *tracer, name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name && strings.HasPrefix(s.Req, "replay/") {
			d += time.Duration(s.BusyNS)
		}
	}
	return d
}

package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime/debug"
	"slices"
	"time"

	"repro/internal/attack"
	"repro/internal/capture"
	"repro/internal/dataset"
	"repro/internal/layers"
	"repro/internal/media"
	"repro/internal/pcapio"
	"repro/internal/profiles"
	"repro/internal/script"
	"repro/internal/tcpreasm"
	"repro/internal/tlsrec"
)

const (
	// inferRoundPoints is the corpus size of one round. Each round's
	// captures are generated untimed, attacked inferPasses times and
	// dropped, so the run sees many distinct captures while holding only
	// one round (~250 MB) in memory.
	inferRoundPoints = 24
	inferPasses      = 16
	// minCalls keeps at least ten samples beyond the p99 in the report.
	minCalls = 1000
)

// inferInput is one rendered capture with its ground truth.
type inferInput struct {
	data    []byte
	packets int
	cond    profiles.Condition
	truth   []bool
	index   int
}

// inferRound generates round r of the infer-batch inputs: a Table-I corpus
// from dataset.Stream (TLS 1.2, full payloads) with each capture rendered
// the way DatasetWriter renders it, held outside the Go heap until
// freeRound. Every round shares the title encoding the attackers were
// trained on.
func inferRound(seed uint64, r, n int, enc *media.Encoding) ([]inferInput, error) {
	var out []inferInput
	var buf bytes.Buffer
	cfg := dataset.Config{N: n, Seed: seed*4099 + uint64(r), Encoding: enc, Workers: 2}
	err := dataset.Stream(cfg, func(p dataset.Point) error {
		buf.Reset()
		if err := capture.WritePcap(&buf, p.Trace, capture.Options{Seed: uint64(p.Index)}); err != nil {
			return err
		}
		in := inferInput{
			data: offHeap(buf.Bytes()), cond: p.Condition,
			truth: p.Trace.GroundTruthDecisions(), index: p.Index,
		}
		p.Trace.Release()
		rd, err := pcapio.NewBytesReader(in.data)
		if err != nil {
			return err
		}
		for {
			if _, err := rd.Next(); err == io.EOF {
				break
			} else if err != nil {
				return err
			}
			in.packets++
		}
		out = append(out, in)
		return nil
	})
	return out, err
}

// freeRound releases a round's captures; nothing may reference them after.
func freeRound(in []inferInput) {
	for _, c := range in {
		freeOffHeap(c.data)
	}
}

// inferFigures is what one measurement of the infer-batch loop saw.
type inferFigures struct {
	bytes    int64
	wall     time.Duration
	lat      []float64 // ms per InferPcap call
	passMBps []float64 // throughput of each pass
	allocs   float64   // bytes allocated during the timed passes
	rounds   int
}

// mbps is the median pass throughput: a pass that shared the machine
// with a burst of other work does not move it.
func (f *inferFigures) mbps() float64 { return median(f.passMBps) }

// measureInfer runs rounds until budget is spent and minCalls calls were
// made. Decisions are checked after each pass, outside the timed loop.
// With a tracer every InferPcap call becomes a span. It returns the last
// round's inputs for the traced replay; the caller frees them.
func measureInfer(seed uint64, atks attackers, enc *media.Encoding, budget time.Duration, t *tracer, r *report) (*inferFigures, []inferInput, error) {
	f := &inferFigures{}
	var in []inferInput
	infs := make([]*attack.Inference, inferRoundPoints)
	errs := make([]error, inferRoundPoints)
	for round := 0; f.wall < budget || len(f.lat) < minCalls; round++ {
		freeRound(in)
		var err error
		in, err = inferRound(seed, round, inferRoundPoints, enc)
		if err != nil {
			return nil, nil, err
		}
		f.rounds++
		debug.FreeOSMemory() // drop the generator's garbage before timing
		for pass := 0; pass < inferPasses; pass++ {
			allocs := readMetric(allocsMetric)
			start := time.Now()
			for i := range in {
				c := time.Now()
				infs[i], errs[i] = atks[in[i].cond].InferPcap(in[i].data)
				d := time.Since(c)
				f.lat = append(f.lat, ms(d))
				if t != nil {
					t.add("attack.Attacker.InferPcap", fmt.Sprintf("r%d/capture-%d", round, in[i].index), 0,
						int64(c.Sub(t.epoch)), int64(c.Add(d).Sub(t.epoch)))
				}
			}
			wall := time.Since(start)
			f.wall += wall
			f.allocs += readMetric(allocsMetric) - allocs
			var passBytes int64
			for i := range in {
				passBytes += int64(len(in[i].data))
				checkInference(r, fmt.Sprintf("round %d capture %d", round, in[i].index), infs[i], errs[i], in[i].truth)
				infs[i], errs[i] = nil, nil
			}
			f.bytes += passBytes
			f.passMBps = append(f.passMBps, float64(passBytes)/1e6/wall.Seconds())
		}
	}
	return f, in, nil
}

// checkInference counts one InferPcap call as an operation, failed when
// it returned an error or decisions other than the ground truth.
func checkInference(r *report, label string, inf *attack.Inference, err error, truth []bool) {
	r.attempted++
	switch {
	case err != nil:
		r.fail("%s: InferPcap: %v", label, err)
	case !slices.Equal(inf.Decisions, truth):
		r.fail("%s: decisions %v, truth %v", label, inf.Decisions, truth)
	}
}

func runInferBatch(cfg config) (*report, error) {
	r := newReport()
	var t *tracer
	if cfg.trace {
		t = newTracer()
		r.spans = t
	}
	atks, st, err := trainAttackers(profiles.Grid(), t)
	if err != nil {
		return nil, err
	}
	st.report(r)
	enc := media.EncodeCached(script.Bandersnatch(), media.DefaultLadder, cfg.seed^0xabcd)

	budget := cfg.budget
	if cfg.trace {
		budget /= 2 // half untraced, half traced, over the same rounds
	}
	plain, last, err := measureInfer(cfg.seed, atks, enc, budget, nil, r)
	if err != nil {
		return nil, err
	}
	var bytesIn int64
	var packets int
	for _, in := range last {
		bytesIn += int64(len(in.data))
		packets += in.packets
	}
	r.shapef("corpus", "TLS 1.2 Table-I grid, %d captures per round, %d rounds, %d passes per round", inferRoundPoints, plain.rounds, inferPasses)
	r.shapef("last round", "%d captures, %.1f MB, %d packets", len(last), float64(bytesIn)/1e6, packets)
	r.shapef("calls", "%d InferPcap calls, %.1f MB", len(plain.lat), float64(plain.bytes)/1e6)
	freeRound(last)
	r.e2e["throughput_mb_s"] = plain.mbps()
	r.e2e["latency_ms_p50"] = quantile(plain.lat, 0.50)
	r.e2e["latency_ms_p90"] = quantile(plain.lat, 0.90)
	r.e2e["mem_mib"] = mib(plain.allocs) / float64(len(plain.lat))
	r.linef("end-to-end: %.1f MB/s, latency p50 %.3f ms p90 %.3f ms p99 %.3f ms max %.3f ms over %d calls, %.2f MiB allocated per call",
		plain.mbps(), r.e2e["latency_ms_p50"], r.e2e["latency_ms_p90"], quantile(plain.lat, 0.99), quantile(plain.lat, 1),
		len(plain.lat), r.e2e["mem_mib"])
	if !cfg.trace {
		return r, nil
	}

	traced, last, err := measureInfer(cfg.seed, atks, enc, budget, t, r)
	if err != nil {
		return nil, err
	}
	r.layer["trace.overhead_pct"] = 100 * (plain.mbps() - traced.mbps()) / plain.mbps()
	r.linef("traced end-to-end: %.1f MB/s, p50 %.3f ms (untraced %.1f MB/s)",
		traced.mbps(), quantile(traced.lat, 0.5), plain.mbps())

	table, err := attack.PathTableFor(script.Bandersnatch(), script.BandersnatchMaxChoices)
	if err != nil {
		return nil, err
	}
	var tot replayCounts
	var residual []float64
	for _, in := range last {
		req := fmt.Sprintf("replay/capture-%d", in.index)
		atk := atks[in.cond]
		busy := tot.layerBusy
		if err := replayCapture(t, atk, table, in.data, req, &tot); err != nil {
			return nil, fmt.Errorf("replay of capture %d: %w", in.index, err)
		}
		s := t.now()
		if _, err := atk.InferPcap(in.data); err != nil {
			return nil, err
		}
		e := t.now()
		t.add("attack.Attacker.InferPcap", req, 0, s, e)
		residual = append(residual, ms(time.Duration(e-s)-(tot.layerBusy-busy)))
	}
	freeRound(last)
	tot.report(r, len(last))
	r.layer["attack.monitor.residual_ms_per_capture"] = mean(residual)
	r.layer["self.attack_monitor_ms_per_op"] = mean(residual)
	r.linef("replay: %d captures, %d packets; InferPcap minus replayed layers %.3f ms per capture (signed)",
		len(last), tot.packets, mean(residual))
	const batch = "infer-batch feeds whole captures to InferPcap"
	r.idle("InferPcap adopts the capture: no chunk copy", "pcapio.feed_copy_ns_per_kib")
	r.idle("the corpus is TLS over TCP: no UDP", "quicrec.sniffed_flows", "attack.burst_ns_per_datagram",
		"attack.bursts", "self.quicrec_ms_per_op", "self.attack_burst_ms_per_op")
	r.idle(batch+": no chunked feed, window or live events", monitorLiveMetrics...)
	r.idle(batch+": unsharded", "attack.shard.flows_skew")
	r.idle("corpus-only layer", simulationMetrics...)
	r.idle(batch+": closed loop, no paced generator", "gen.lag_ms_max", "gen.late_chunks")
	return r, nil
}

// monitorLiveMetrics are the per-layer metrics of a chunk-fed, windowed
// Monitor.
var monitorLiveMetrics = []string{
	"attack.monitor.feed_us_p50", "attack.monitor.feed_us_p99", "attack.monitor.busy_pct",
	"attack.monitor.close_ms", "attack.monitor.alloc_kib_per_mib", "attack.monitor.flows_peak",
	"attack.monitor.sweep_touched",
	"attack.monitor.events.flow_detected", "attack.monitor.events.choice_inferred",
	"attack.monitor.events.session_finalized", "attack.monitor.events.flow_expired",
	"attack.monitor.events.quic_flow_observed",
	"attack.monitor.expired.fin", "attack.monitor.expired.rst", "attack.monitor.expired.idle",
	"attack.monitor.expired.rejected", "attack.monitor.expired.close",
}

// simulationMetrics are the per-layer metrics of corpus generation.
var simulationMetrics = []string{
	"media.encode_ms", "session.run_ms_per_point", "capture.render_ms_per_point",
	"dataset.write_ms_per_point", "dataset.pcap_mib_per_point", "parallel.emit_wait_ms_per_point",
	"self.session_ms_per_op", "self.capture_ms_per_op", "self.dataset_ms_per_op", "self.parallel_ms_per_op",
}

// attackMetrics are the per-layer metrics of the attack side.
var attackMetrics = append([]string{
	"pcapio.next_ns_per_pkt", "pcapio.packets", "pcapio.feed_copy_ns_per_kib",
	"layers.decode_ns_per_pkt", "layers.undecodable",
	"tcpreasm.feed_ns_per_seg", "tcpreasm.segments", "tcpreasm.gaps",
	"tlsrec.scan_ns_per_record", "tlsrec.records",
	"quicrec.sniffed_flows", "attack.burst_ns_per_datagram", "attack.bursts",
	"attack.classify_ns_per_record", "attack.inband_ratio",
	"attack.decode_us_per_call", "attack.decode_calls",
	"attack.monitor.residual_ms_per_capture", "attack.shard.flows_skew",
	"attack.train_ms_per_attacker", "attack.path_table_ms",
	"self.pcapio_ms_per_op", "self.layers_ms_per_op", "self.tcpreasm_ms_per_op", "self.tlsrec_ms_per_op",
	"self.quicrec_ms_per_op", "self.attack_burst_ms_per_op", "self.attack_classify_ms_per_op",
	"self.attack_decode_ms_per_op", "self.attack_monitor_ms_per_op",
}, monitorLiveMetrics...)

// replayCounts is what a staged replay counted and timed.
type replayCounts struct {
	packets, undecodable, segments, gaps, records int64
	appRecords, inband, decodeCalls               int64
	sniffed, datagrams, bursts                    int64
	copiedBytes                                   int64
	next, decode, reasm, scan, classify, path     time.Duration
	copyT, sniff, burst, harness                  time.Duration
	layerBusy                                     time.Duration // every layer call, summed
}

func perUnit(d time.Duration, n int64, unit time.Duration) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(unit) / float64(n)
}

// report turns the replay's counts into per-layer metrics; ops is the
// number of the workload's operations the replay covered.
func (c *replayCounts) report(r *report, ops int) {
	r.layer["pcapio.next_ns_per_pkt"] = perUnit(c.next, c.packets, time.Nanosecond)
	r.layer["pcapio.packets"] = float64(c.packets)
	r.layer["layers.decode_ns_per_pkt"] = perUnit(c.decode, c.packets, time.Nanosecond)
	r.layer["layers.undecodable"] = float64(c.undecodable)
	r.layer["tcpreasm.feed_ns_per_seg"] = perUnit(c.reasm, c.segments, time.Nanosecond)
	r.layer["tcpreasm.segments"] = float64(c.segments)
	r.layer["tcpreasm.gaps"] = float64(c.gaps)
	r.layer["tlsrec.scan_ns_per_record"] = perUnit(c.scan, c.records, time.Nanosecond)
	r.layer["tlsrec.records"] = float64(c.records)
	r.layer["attack.classify_ns_per_record"] = perUnit(c.classify, c.appRecords+c.bursts, time.Nanosecond)
	if c.appRecords+c.bursts > 0 {
		r.layer["attack.inband_ratio"] = float64(c.inband) / float64(c.appRecords+c.bursts)
	}
	r.layer["self.pcapio_ms_per_op"] = perUnit(c.next+c.copyT, int64(ops), time.Millisecond)
	r.layer["self.layers_ms_per_op"] = perUnit(c.decode, int64(ops), time.Millisecond)
	r.layer["self.tcpreasm_ms_per_op"] = perUnit(c.reasm, int64(ops), time.Millisecond)
	r.layer["self.tlsrec_ms_per_op"] = perUnit(c.scan, int64(ops), time.Millisecond)
	r.layer["self.attack_classify_ms_per_op"] = perUnit(c.classify, int64(ops), time.Millisecond)
	r.layer["self.harness_ms_per_op"] = perUnit(c.harness, int64(ops), time.Millisecond)
	if c.decodeCalls > 0 {
		r.layer["attack.decode_us_per_call"] = perUnit(c.path, c.decodeCalls, time.Microsecond)
		r.layer["attack.decode_calls"] = float64(c.decodeCalls)
		r.layer["self.attack_decode_ms_per_op"] = perUnit(c.path, int64(ops), time.Millisecond)
	}
	if c.copiedBytes > 0 {
		r.layer["pcapio.feed_copy_ns_per_kib"] = perUnit(c.copyT, c.copiedBytes/1024, time.Nanosecond)
	}
	if c.sniffed+c.datagrams > 0 {
		r.layer["quicrec.sniffed_flows"] = float64(c.sniffed)
		r.layer["attack.burst_ns_per_datagram"] = perUnit(c.burst, c.datagrams, time.Nanosecond)
		r.layer["attack.bursts"] = float64(c.bursts)
		r.layer["self.quicrec_ms_per_op"] = perUnit(c.sniff, int64(ops), time.Millisecond)
		r.layer["self.attack_burst_ms_per_op"] = perUnit(c.burst, int64(ops), time.Millisecond)
	}
}

// dirState is one direction of a replayed TCP conversation.
type dirState struct {
	stream   *tcpreasm.Stream
	sc       *tlsrec.RecordScanner
	consumed int
}

// replayCapture runs one capture through the attack's layers the way
// InferPcap does — Reader.Next, DecodePacket, Assembler.Feed,
// RecordScanner.Feed, then ClassifyRecords and PathTable.Decode on the
// client direction — with one span per layer under a root span for the
// capture, and adds what it counted and timed to c.
func replayCapture(t *tracer, atk *attack.Attacker, table *attack.PathTable, data []byte, req string, c *replayCounts) error {
	root := t.open("harness.replay", req, 0)
	next := calls{name: "pcapio.Reader.Next"}
	dec := calls{name: "layers.DecodePacket"}
	feed := calls{name: "tcpreasm.Assembler.Feed"}
	scan := calls{name: "tlsrec.RecordScanner.Feed"}
	cls := calls{name: "attack.ClassifyRecords"}
	path := calls{name: "attack.PathTable.Decode"}

	s := t.now()
	rd, err := pcapio.NewBytesReader(data)
	next.note(s, t.now())
	if err != nil {
		return err
	}
	asm := tcpreasm.NewAssembler()
	asm.SetStablePayloads(true) // the capture outlives the replay, as in InferPcap
	dirs := map[layers.FlowKey]*dirState{}
	var client *dirState
	for {
		s := t.now()
		rec, err := rd.Next()
		next.note(s, t.now())
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		c.packets++
		s = t.now()
		p, err := layers.DecodePacket(rec.Timestamp, rec.Data)
		dec.note(s, t.now())
		if err != nil {
			c.undecodable++
			continue
		}
		if p.Proto == layers.IPProtocolUDP {
			continue
		}
		s = t.now()
		st := asm.Feed(p)
		feed.note(s, t.now())
		c.segments++
		d := dirs[st.Key]
		if d == nil {
			d = &dirState{stream: st, sc: tlsrec.NewRecordScanner()}
			dirs[st.Key] = d
			if client == nil {
				client = d // the first packet is the client's SYN
			}
		}
		for _, ch := range st.DeliveredChunks(d.consumed) {
			d.consumed++
			if d.sc.Err() == nil {
				s := t.now()
				d.sc.Feed(ch.Time, ch.Data)
				scan.note(s, t.now())
			}
		}
	}
	for _, d := range dirs {
		c.gaps += int64(d.stream.Gaps())
		c.records += int64(len(d.sc.Records()))
	}
	if client == nil {
		return fmt.Errorf("no TCP conversation")
	}
	recs := client.sc.Records()
	s = t.now()
	classified := attack.ClassifyRecords(recs, atk.Classifier)
	cls.note(s, t.now())
	for _, cr := range classified {
		if cr.Record.Type == tlsrec.ContentApplicationData {
			c.appRecords++
			if cr.Class == attack.ClassType1 || cr.Class == attack.ClassType2 {
				c.inband++
			}
		}
	}
	if len(recs) > 0 {
		s = t.now()
		_, err := table.Decode(classified, recs[0].Time, atk.Decode)
		path.note(s, t.now())
		if err != nil {
			return err
		}
		c.decodeCalls++
	}
	c.next += time.Duration(next.busy)
	c.decode += time.Duration(dec.busy)
	c.reasm += time.Duration(feed.busy)
	c.scan += time.Duration(scan.busy)
	c.classify += time.Duration(cls.busy)
	c.path += time.Duration(path.busy)
	var busy time.Duration
	for _, a := range []*calls{&next, &dec, &feed, &scan, &cls, &path} {
		busy += time.Duration(a.busy)
		t.flush(a, req, root)
	}
	t.close(root)
	c.layerBusy += busy
	c.harness += time.Duration(t.spans[root-1].BusyNS) - busy
	return nil
}

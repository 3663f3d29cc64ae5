package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/capture"
	"repro/internal/dataset"
	"repro/internal/media"
	"repro/internal/profiles"
	"repro/internal/script"
	"repro/internal/session"
	"repro/internal/viewer"
)

const (
	// corpusBatch is the size of one GenerateTo corpus. A run writes
	// batch after batch into fresh directories, each checked and removed
	// once its call returns, so disk use stays at one batch.
	corpusBatch   = 12
	corpusWorkers = 2
	// shadowPoints is how many traced points are simulated and rendered
	// again, alone, to time session.Run and capture.WritePcap.
	shadowPoints = 24
)

// corpusConfig is batch b's generation config: TLS 1.2, full payloads,
// the whole Table-I grid, two workers.
func corpusConfig(seed uint64, b int, enc *media.Encoding) dataset.Config {
	return dataset.Config{N: corpusBatch, Seed: seed*6151 + uint64(b), Encoding: enc, Workers: corpusWorkers}
}

// corpusFigures is one measurement of the corpus loop.
type corpusFigures struct {
	points   int
	bytes    int64
	wall     time.Duration
	perPoint []float64 // ms per point of each GenerateTo call
	callMBps []float64 // capture MB written per second, per call
	heapPeak float64
	batches  int
}

// mbps is the median call throughput.
func (f *corpusFigures) mbps() float64 { return median(f.callMBps) }

// verifyCorpus re-reads a written corpus and checks that every point is
// present and its files match the manifest's SHA-256 sums.
func verifyCorpus(dir string, n int, label string, r *report) int64 {
	man, err := dataset.ReadManifest(dir)
	if err != nil {
		for i := 0; i < n; i++ {
			r.attempted++
			r.fail("%s point %d: %v", label, i, err)
		}
		return 0
	}
	byIndex := map[int]dataset.ManifestEntry{}
	for _, e := range man.Points {
		byIndex[e.Index] = e
	}
	var total int64
	for i := 0; i < n; i++ {
		r.attempted++
		e, ok := byIndex[i]
		if !ok {
			r.fail("%s point %d: missing from the manifest", label, i)
			continue
		}
		if err := checkSum(filepath.Join(dir, e.Pcap), e.PcapSHA256); err != nil {
			r.fail("%s point %d: %v", label, i, err)
			continue
		}
		if err := checkSum(filepath.Join(dir, e.Labels), e.LabelsSHA256); err != nil {
			r.fail("%s point %d: %v", label, i, err)
			continue
		}
		total += e.PcapBytes
	}
	return total
}

func checkSum(path, want string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != want {
		return fmt.Errorf("%s: SHA-256 %s, manifest %s", filepath.Base(path), got, want)
	}
	return nil
}

// measureCorpus runs GenerateTo batches until budget is spent. With a
// tracer it composes each batch from the calls GenerateTo makes (see
// generateTraced) and returns the points to shadow.
func measureCorpus(seed uint64, enc *media.Encoding, base string, budget time.Duration, t *tracer, r *report) (*corpusFigures, []shadowPoint, error) {
	f := &corpusFigures{}
	var shadows []shadowPoint
	for b := 0; f.wall < budget; b++ {
		dir := filepath.Join(base, fmt.Sprintf("batch-%03d", b))
		cfg := corpusConfig(seed, b, enc)
		watch := startHeapWatch()
		start := time.Now()
		var err error
		if t == nil {
			_, _, err = dataset.GenerateTo(cfg, dir, true)
		} else {
			shadows, err = generateTraced(cfg, dir, b, t, shadows)
		}
		d := time.Since(start)
		f.heapPeak = max(f.heapPeak, watch.stop())
		if err != nil {
			return nil, nil, fmt.Errorf("batch %d: %w", b, err)
		}
		f.wall += d
		f.batches++
		f.points += corpusBatch
		f.perPoint = append(f.perPoint, ms(d)/corpusBatch)
		n := verifyCorpus(dir, corpusBatch, fmt.Sprintf("batch %d", b), r)
		f.bytes += n
		f.callMBps = append(f.callMBps, float64(n)/1e6/d.Seconds())
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, err
		}
	}
	return f, shadows, nil
}

// shadowPoint is what the traced sink keeps to simulate a point again.
type shadowPoint struct {
	batch, index int
	viewer       viewer.Viewer
	cond         profiles.Condition
	sessionID    string
	pcapSHA      string
}

// generateTraced is GenerateTo composed from the calls it makes —
// NewDatasetWriter, Stream with a sink that runs Write and Release, Close
// — so the sink and the wait between points get spans. It appends the
// first shadowPoints points it sees to shadows.
func generateTraced(cfg dataset.Config, dir string, b int, t *tracer, shadows []shadowPoint) ([]shadowPoint, error) {
	w, err := dataset.NewDatasetWriter(dir, cfg)
	if err != nil {
		return shadows, err
	}
	first := len(shadows)
	last := t.now()
	err = dataset.Stream(cfg, func(p dataset.Point) error {
		req := fmt.Sprintf("b%d/point-%d", b, p.Index)
		t.add("parallel.StreamN.emit_wait", req, 0, last, t.now())
		id := t.open("dataset.DatasetWriter.Write", req, 0)
		err := w.Write(p)
		t.close(id)
		if len(shadows) < shadowPoints {
			shadows = append(shadows, shadowPoint{batch: b, index: p.Index, viewer: p.Viewer,
				cond: p.Condition, sessionID: p.Trace.SessionID})
		}
		p.Trace.Release()
		last = t.now()
		return err
	})
	if err == nil {
		err = w.Close()
	}
	if err != nil {
		return shadows, err
	}
	for i := first; i < len(shadows); i++ {
		shadows[i].pcapSHA = w.Manifest().Points[shadows[i].index].PcapSHA256
	}
	return shadows, nil
}

func runCorpus(cfg config) (*report, error) {
	r := newReport()
	var t *tracer
	if cfg.trace {
		t = newTracer()
		r.spans = t
	}
	base, err := os.MkdirTemp(cfg.workdir, "corpus-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)

	// Set-up: encode the title (EncodeCached, a fresh key each repetition
	// so every repetition encodes) and open a writer.
	g := script.Bandersnatch()
	var setup, encodeMS []float64
	var enc *media.Encoding
	begin := time.Now()
	for rep := 0; moreSetup(rep, begin); rep++ {
		req := fmt.Sprintf("setup-%d", rep)
		s := time.Now()
		e := media.EncodeCached(g, media.DefaultLadder, (cfg.seed^0xabcd)+uint64(rep)<<32)
		encodeMS = append(encodeMS, ms(time.Since(s)))
		if t != nil {
			t.add("media.EncodeCached", req, 0, int64(s.Sub(t.epoch)), t.now())
		}
		ws := time.Now()
		dir := filepath.Join(base, req)
		if _, err := dataset.NewDatasetWriter(dir, corpusConfig(cfg.seed, 0, e)); err != nil {
			return nil, err
		}
		if t != nil {
			t.add("dataset.NewDatasetWriter", req, 0, int64(ws.Sub(t.epoch)), t.now())
		}
		setup = append(setup, time.Since(s).Seconds())
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		if rep == 0 {
			enc = e
		}
	}
	r.e2e["setup_s"] = median(setup)
	r.layer["media.encode_ms"] = median(encodeMS)

	budget := cfg.budget
	if cfg.trace {
		budget /= 2
	}
	plain, _, err := measureCorpus(cfg.seed, enc, base, budget, nil, r)
	if err != nil {
		return nil, err
	}
	r.shapef("corpus", "TLS 1.2 Table-I grid, full payloads, CSV on, %d points per GenerateTo call, %d workers", corpusBatch, corpusWorkers)
	r.shapef("points", "%d in %d calls, %.1f MB of captures", plain.points, plain.batches, float64(plain.bytes)/1e6)
	r.e2e["throughput_mb_s"] = plain.mbps()
	r.e2e["latency_ms_p50"] = quantile(plain.perPoint, 0.50)
	r.e2e["latency_ms_p90"] = quantile(plain.perPoint, 0.90)
	r.e2e["mem_mib"] = mib(plain.heapPeak)
	r.linef("end-to-end: %.2f points/s, %.1f MB/s, %.2f ms per point (p50 of calls), live heap +%.1f MiB",
		float64(plain.points)/plain.wall.Seconds(), plain.mbps(), r.e2e["latency_ms_p50"], mib(plain.heapPeak))
	if !cfg.trace {
		return r, nil
	}

	traced, shadows, err := measureCorpus(cfg.seed, enc, base, budget, t, r)
	if err != nil {
		return nil, err
	}
	r.layer["trace.overhead_pct"] = 100 * (plain.mbps() - traced.mbps()) / plain.mbps()
	r.linef("traced end-to-end: %.2f points/s, %.1f MB/s (untraced %.1f MB/s)",
		float64(traced.points)/traced.wall.Seconds(), traced.mbps(), plain.mbps())

	// Simulate and render sampled points again, alone. The shadow config
	// rebuilds what dataset.Stream passes to session.Run; the rendered
	// capture's SHA-256 must equal the manifest's, or the timing is not
	// of the same work and the metrics are reported as not measurable.
	var runMS, renderMS, pcapMiB []float64
	matched := 0
	var buf bytes.Buffer
	for _, sp := range shadows {
		req := fmt.Sprintf("shadow/b%d/point-%d", sp.batch, sp.index)
		c := corpusConfig(cfg.seed, sp.batch, enc)
		s := time.Now()
		tr, err := session.Run(session.Config{
			Graph: g, Encoding: enc, Viewer: sp.viewer, Condition: sp.cond,
			SessionID: sp.sessionID, Seed: c.Seed*1_000_003 + uint64(sp.index),
		})
		if err != nil {
			return nil, err
		}
		runMS = append(runMS, ms(time.Since(s)))
		t.add("session.Run", req, 0, int64(s.Sub(t.epoch)), t.now())
		buf.Reset()
		s = time.Now()
		if err := capture.WritePcap(&buf, tr, capture.Options{Seed: uint64(sp.index)}); err != nil {
			return nil, err
		}
		renderMS = append(renderMS, ms(time.Since(s)))
		t.add("capture.WritePcap", req, 0, int64(s.Sub(t.epoch)), t.now())
		pcapMiB = append(pcapMiB, mib(float64(buf.Len())))
		sum := sha256.Sum256(buf.Bytes())
		if hex.EncodeToString(sum[:]) == sp.pcapSHA {
			matched++
		}
	}
	write, writes := t.stat("dataset.DatasetWriter.Write")
	wait, waits := t.stat("parallel.StreamN.emit_wait")
	writeMS := perUnit(write, writes, time.Millisecond)
	waitMS := perUnit(wait, waits, time.Millisecond)
	r.layer["dataset.write_ms_per_point"] = writeMS
	r.layer["parallel.emit_wait_ms_per_point"] = waitMS
	r.layer["self.parallel_ms_per_op"] = waitMS
	r.layer["dataset.pcap_mib_per_point"] = mib(float64(traced.bytes)) / float64(traced.points)
	r.linef("sink: Write %.2f ms per point, emit wait %.2f ms per point over %d points", writeMS, waitMS, writes)
	if matched == len(shadows) && matched > 0 {
		r.layer["session.run_ms_per_point"] = mean(runMS)
		r.layer["capture.render_ms_per_point"] = mean(renderMS)
		r.layer["self.session_ms_per_op"] = mean(runMS)
		r.layer["self.capture_ms_per_op"] = mean(renderMS)
		r.layer["self.dataset_ms_per_op"] = writeMS - mean(renderMS)
		r.linef("shadow: %d points simulated and rendered alone, all matching the manifest; session.Run %.2f ms, WritePcap %.2f ms, %.1f MiB per point",
			matched, mean(runMS), mean(renderMS), mean(pcapMiB))
	} else {
		const why = "not measurable from outside: the shadow session no longer reproduces the written point"
		r.idle(why, "session.run_ms_per_point", "capture.render_ms_per_point",
			"self.session_ms_per_op", "self.capture_ms_per_op")
		r.layer["self.dataset_ms_per_op"] = writeMS
		r.linef("shadow: only %d of %d re-simulated points match the manifest", matched, len(shadows))
	}
	r.idle("no harness spans: the sink only calls Write and Release", "self.harness_ms_per_op")
	r.idle("corpus generation runs no attack layer", attackMetrics...)
	r.idle("closed loop, no paced generator", "gen.lag_ms_max", "gen.late_chunks")
	return r, nil
}

// Command perfbench is the repository benchmark. It runs one workload per
// invocation against the attack and simulation stacks, checks every
// operation's output, and prints a human-readable report followed by one
// JSON result line:
//
//	go run . --workload infer-batch --seed 1 --seconds 12 --trace 0
//
// Workloads: infer-batch (closed-loop Attacker.InferPcap over a Table-I
// corpus), tap and tap-sharded (an open-loop paced live tap through one
// windowed Monitor, unsharded and with two shards), and corpus
// (dataset.GenerateTo at two workers). With --trace 0 the result carries
// the end-to-end metrics; with --trace 1 a traced run times every call the
// benchmark makes into a layer's public functions and the result carries
// the per-layer metrics. README.md lists the metrics and their meaning.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// metricSpec names one metric and its unit. The end-to-end and per-layer
// catalogues below are the benchmark's contract: BENCHMARK.json lists the
// same names and units (TestCatalogueMatchesBenchmarkJSON).
type metricSpec struct {
	name, unit string
}

var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"throughput_mb_s", "MB/s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_p90", "ms"},
	{"mem_mib", "MiB"},
}

var perLayer = []metricSpec{
	{"pcapio.next_ns_per_pkt", "ns"},
	{"pcapio.packets", "count"},
	{"pcapio.feed_copy_ns_per_kib", "ns"},
	{"layers.decode_ns_per_pkt", "ns"},
	{"layers.undecodable", "count"},
	{"tcpreasm.feed_ns_per_seg", "ns"},
	{"tcpreasm.segments", "count"},
	{"tcpreasm.gaps", "count"},
	{"tlsrec.scan_ns_per_record", "ns"},
	{"tlsrec.records", "count"},
	{"quicrec.sniffed_flows", "count"},
	{"attack.burst_ns_per_datagram", "ns"},
	{"attack.bursts", "count"},
	{"attack.classify_ns_per_record", "ns"},
	{"attack.inband_ratio", "ratio"},
	{"attack.decode_us_per_call", "us"},
	{"attack.decode_calls", "count"},
	{"attack.monitor.feed_us_p50", "us"},
	{"attack.monitor.feed_us_p99", "us"},
	{"attack.monitor.busy_pct", "%"},
	{"attack.monitor.close_ms", "ms"},
	{"attack.monitor.alloc_kib_per_mib", "KiB/MiB"},
	{"attack.monitor.flows_peak", "count"},
	{"attack.monitor.sweep_touched", "count"},
	{"attack.monitor.events.flow_detected", "count"},
	{"attack.monitor.events.choice_inferred", "count"},
	{"attack.monitor.events.session_finalized", "count"},
	{"attack.monitor.events.flow_expired", "count"},
	{"attack.monitor.events.quic_flow_observed", "count"},
	{"attack.monitor.expired.fin", "count"},
	{"attack.monitor.expired.rst", "count"},
	{"attack.monitor.expired.idle", "count"},
	{"attack.monitor.expired.rejected", "count"},
	{"attack.monitor.expired.close", "count"},
	{"attack.monitor.residual_ms_per_capture", "ms"},
	{"attack.shard.flows_skew", "ratio"},
	{"attack.train_ms_per_attacker", "ms"},
	{"attack.path_table_ms", "ms"},
	{"media.encode_ms", "ms"},
	{"session.run_ms_per_point", "ms"},
	{"capture.render_ms_per_point", "ms"},
	{"dataset.write_ms_per_point", "ms"},
	{"dataset.pcap_mib_per_point", "MiB"},
	{"parallel.emit_wait_ms_per_point", "ms"},
	{"gen.lag_ms_max", "ms"},
	{"gen.late_chunks", "count"},
	{"trace.overhead_pct", "%"},
	// Self time per layer, per operation of the workload: the layer's
	// span time minus the part its child spans cover.
	{"self.pcapio_ms_per_op", "ms"},
	{"self.layers_ms_per_op", "ms"},
	{"self.tcpreasm_ms_per_op", "ms"},
	{"self.tlsrec_ms_per_op", "ms"},
	{"self.quicrec_ms_per_op", "ms"},
	{"self.attack_burst_ms_per_op", "ms"},
	{"self.attack_classify_ms_per_op", "ms"},
	{"self.attack_decode_ms_per_op", "ms"},
	{"self.attack_monitor_ms_per_op", "ms"},
	{"self.session_ms_per_op", "ms"},
	{"self.capture_ms_per_op", "ms"},
	{"self.dataset_ms_per_op", "ms"},
	{"self.parallel_ms_per_op", "ms"},
	{"self.harness_ms_per_op", "ms"},
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	budget   time.Duration // measured time
	trace    bool
	workdir  string // directory for files a workload writes
}

// report is what a workload hands back to main.
type report struct {
	attempted, failed int
	problems          []string           // correctness failures, one line each
	shape             []string           // input shape, "name: value" lines
	e2e               map[string]float64 // end-to-end metrics (untraced runs)
	layer             map[string]float64 // per-layer metrics (traced runs)
	notes             map[string]string  // why a per-layer metric is 0
	lines             []string           // extra report lines
	spans             *tracer            // the traced run's spans
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}, notes: map[string]string{}}
}

func (r *report) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) shapef(name string, format string, args ...any) {
	r.shape = append(r.shape, name+": "+fmt.Sprintf(format, args...))
}

func (r *report) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// idle records a per-layer metric the workload does not exercise.
func (r *report) idle(reason string, names ...string) {
	for _, n := range names {
		if _, ok := r.layer[n]; !ok {
			r.layer[n] = 0
			r.notes[n] = reason
		}
	}
}

var workloads = map[string]func(config) (*report, error){
	"infer-batch": runInferBatch,
	"tap":         func(c config) (*report, error) { return runTap(c, 0) },
	"tap-sharded": func(c config) (*report, error) { return runTap(c, 2) },
	"corpus":      runCorpus,
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	var cfg config
	var seconds int
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: infer-batch, tap, tap-sharded or corpus")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&seconds, "seconds", 12, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.StringVar(&cfg.workdir, "workdir", os.TempDir(), "directory for files a workload writes")
	flag.Parse()
	run, ok := workloads[cfg.workload]
	if !ok || seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (infer-batch|tap|tap-sharded|corpus), --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	cfg.budget = time.Duration(seconds) * time.Second
	cfg.trace = traceFlag == 1

	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	res, err := finish(cfg, rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// finish prints the human-readable report, writes the spans of a traced
// run and assembles the result line.
func finish(cfg config, rep *report) (*resultJSON, error) {
	fmt.Printf("workload %s seed %d seconds %.0f trace %v\n", cfg.workload, cfg.seed, cfg.budget.Seconds(), cfg.trace)
	for _, s := range rep.shape {
		fmt.Printf("  input  %s\n", s)
	}
	for _, l := range rep.lines {
		fmt.Printf("  %s\n", l)
	}
	for _, p := range rep.problems {
		fmt.Printf("  FAILED %s\n", p)
	}
	res := &resultJSON{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricJSON{},
	}
	specs, values := endToEnd, rep.e2e
	if cfg.trace {
		specs, values = perLayer, rep.layer
	}
	for _, m := range specs {
		v, ok := values[m.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.name)
		}
		note := ""
		if n := rep.notes[m.name]; n != "" {
			note = "  (" + n + ")"
		}
		fmt.Printf("  metric %-44s %14.4f %s%s\n", m.name, v, m.unit, note)
		res.Metrics[m.name] = metricJSON{Value: v, Unit: m.unit}
	}
	if cfg.trace && rep.spans != nil {
		printSelfTimes(rep.spans)
		path, err := rep.spans.writeFile(cfg.workdir, cfg.workload, cfg.seed)
		if err != nil {
			return nil, err
		}
		fmt.Printf("  spans  %d written to %s\n", rep.spans.len(), path)
	}
	fmt.Printf("  ops    attempted %d failed %d\n", rep.attempted, rep.failed)
	return res, nil
}

// printSelfTimes lists each span name's total self time, largest first.
func printSelfTimes(t *tracer) {
	self := t.selfByName()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	var total time.Duration
	for _, n := range names {
		total += self[n]
	}
	for _, n := range names {
		share := 0.0
		if total > 0 {
			share = 100 * float64(self[n]) / float64(total)
		}
		fmt.Printf("  self   %-44s %10.2f ms %5.1f%%\n", n, float64(self[n])/1e6, share)
	}
}

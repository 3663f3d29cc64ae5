// Command wmbench regenerates the paper's tables and figures and prints
// the rendered reports. It is the human-readable face of the benchmark
// harness in bench_test.go; EXPERIMENTS.md is assembled from its output.
//
// Usage:
//
//	wmbench                       # every experiment
//	wmbench -exp figure2          # one experiment
//	wmbench -workers 8            # bound the worker pool (0 = GOMAXPROCS)
//	wmbench -benchjson BENCH.json # machine-readable perf + domain metrics
//	wmbench -check BENCH_pr16.json # CI perf gate: rerun pipeline benches,
//	                               # exit non-zero outside the tolerance band
//
// Experiments: table1, figure1, figure2, accuracy, decode, baselines,
// defenses, timing, classifiers, prefetch, interleaved, tls13, quic,
// soak.
//
// The tls13, quic and defenses experiments run the traffic-shaping
// sweep (experiments.Shaping) over their default cells: each cell is a
// wire label and a noise-flow count. tls13 profiles and attacks sessions
// under TLS 1.2, unpadded TLS 1.3 and the RFC 8446 padding policies
// (pad-to-64/256, pad-random-128/512); quic under default QUIC sizing
// at 0-2 noise flows, a 1200-byte cap and the two padding defenses;
// defenses under TLS 1.2 and the paper's §VI report policies
// (reports-pad-4096, reports-split-1200, reports-compress-55) at 0 noise
// flows. Each cell is scored under two threat models: an adaptive
// attacker re-profiled under the cell's wire (detection rate, choice
// accuracy and client byte overhead) and a stale one profiled on the
// bare stack before the policy deployed (detection rate and choice
// accuracy, under a "stale_" metric prefix). The sweep's blind floor,
// the decode of no records, is prior_floor_pct:
//
//	wmbench -exp tls13            # the TLS sweep at the default seed
//	wmbench -exp quic             # the QUIC sweep
//	wmbench -exp defenses         # the §VI countermeasure sweep
//
// A cell whose shaping policy makes the widened type-1/type-2 bands
// overlap is reported as "not separable" — the adaptive attacker
// declines to train rather than misclassify.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	whitemirror "repro"
	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/parallel"
	"repro/internal/profiles"
	"repro/internal/script"
	"repro/internal/statejson"
	"repro/internal/tlsrec"
	"repro/internal/wire"
)

// runner executes one experiment once; report and metrics are derived
// from the same result so the experiment never runs twice.
type runner struct {
	name string
	run  func(seed uint64) (any, error)
	// metrics extracts the experiment's domain metrics for -benchjson.
	metrics func(result any) map[string]float64
}

func runners() []runner {
	return []runner{
		{"table1",
			func(seed uint64) (any, error) { return experiments.Table1(100, seed) },
			func(r any) map[string]float64 {
				v := r.(*experiments.Table1Result)
				return map[string]float64{"viewers": float64(v.N)}
			}},
		{"figure1",
			func(seed uint64) (any, error) { return experiments.Figure1(seed) },
			func(r any) map[string]float64 {
				v := r.(*experiments.Figure1Result)
				return map[string]float64{"events": float64(len(v.Events))}
			}},
		{"figure2",
			func(seed uint64) (any, error) { return experiments.Figure2(5, seed) },
			func(r any) map[string]float64 {
				v := r.(*experiments.Figure2Result)
				var purity float64
				for _, p := range v.Panels {
					purity += p.Type1Purity() + p.Type2Purity()
				}
				return map[string]float64{"bin_purity_pct": purity / float64(2*len(v.Panels))}
			}},
		{"accuracy",
			func(seed uint64) (any, error) { return experiments.Accuracy(10, 2, seed) },
			func(r any) map[string]float64 {
				v := r.(*experiments.AccuracyResult)
				return map[string]float64{
					"mean_accuracy_pct": 100 * v.Mean,
					"worst_case_pct":    100 * v.WorstCase,
					"mean_margin":       v.MeanMargin,
				}
			}},
		{"decode",
			// Pinned to the ROADMAP bug's fixture (wmdataset -n 6 -seed 5,
			// whose session 003 is the 9-choice misdecode) regardless of
			// -seed, so the regression surface never drifts.
			func(seed uint64) (any, error) { return experiments.DecodeRobustness(6, 5) },
			func(r any) map[string]float64 {
				v := r.(*experiments.DecodeRobustnessResult)
				return map[string]float64{
					"drift_accuracy_pct": 100 * v.MeanAccuracy,
					"full_path_pct":      100 * v.FullPathRate,
					"mean_margin":        v.MeanMargin,
				}
			}},
		{"baselines",
			func(seed uint64) (any, error) { return experiments.Baselines(20, seed) },
			func(r any) map[string]float64 {
				v := r.(*experiments.BaselineResult)
				return map[string]float64{
					"bitrate_intra_pct": 100 * v.IntraTitleAccuracy["bitrate"],
					"bitrate_inter_pct": 100 * v.InterTitleAccuracy["bitrate"],
				}
			}},
		{"defenses",
			func(seed uint64) (any, error) { return experiments.Shaping(5, experiments.DefaultReportCells(), seed) },
			shapingMetrics},
		{"timing",
			func(seed uint64) (any, error) { return experiments.Timing(6, seed) },
			func(r any) map[string]float64 {
				v := r.(*experiments.TimingResult)
				return map[string]float64{
					"detection_pct":    100 * v.EventDetectionRate,
					"decision_acc_pct": 100 * v.DecisionAccuracy,
				}
			}},
		{"classifiers",
			func(seed uint64) (any, error) { return experiments.ClassifierAblation(seed) },
			func(r any) map[string]float64 {
				v := r.(*experiments.ClassifierAblationResult)
				return map[string]float64{
					"interval_band_pct": 100 * v.PerClassifier["interval-band"],
					"knn5_pct":          100 * v.PerClassifier["knn-5"],
				}
			}},
		{"prefetch",
			func(seed uint64) (any, error) { return experiments.PrefetchAblation(4, seed) },
			func(r any) map[string]float64 {
				v := r.(*experiments.PrefetchAblationResult)
				return map[string]float64{
					"with_prefetch_pct":    100 * v.WithPrefetch,
					"without_prefetch_pct": 100 * v.WithoutPrefetch,
				}
			}},
		{"interleaved",
			func(seed uint64) (any, error) { return experiments.Interleaved(5, nil, seed) },
			func(r any) map[string]float64 {
				v := r.(*experiments.InterleavedResult)
				m := map[string]float64{}
				for _, p := range v.Points {
					m[fmt.Sprintf("detection_pct_noise%d", p.NoiseFlows)] = 100 * p.DetectionRate
					m[fmt.Sprintf("accuracy_pct_noise%d", p.NoiseFlows)] = 100 * p.MeanAccuracy
				}
				return m
			}},
		{"tls13",
			func(seed uint64) (any, error) { return experiments.Shaping(4, experiments.DefaultTLSCells(), seed) },
			shapingMetrics},
		{"quic",
			func(seed uint64) (any, error) { return experiments.Shaping(4, experiments.DefaultQUICCells(), seed) },
			shapingMetrics},
		{"soak",
			func(seed uint64) (any, error) { return experiments.Soak(20, 2, seed) },
			func(r any) map[string]float64 {
				v := r.(*experiments.SoakResult)
				return map[string]float64{
					"sessions":            float64(v.Sessions),
					"decoded_identical":   float64(v.Decoded),
					"finalized":           float64(v.Finalized),
					"peak_retained_bytes": float64(v.PeakRetainedBytes),
					"sweeps":              float64(v.Sweeps),
					"sweep_touched":       float64(v.SweepTouched),
				}
			}},
	}
}

// shapingMetrics keys the shaping sweep's rates and byte overhead by
// cell label, "tls1.3+pad-to-64/noise-2" becoming "tls13_pad_to_64_noise_2":
// the adaptive attacker's rates, the stale attacker's under a "stale_"
// prefix, and the sweep's blind floor as prior_floor_pct. Untrainable
// cells carry zero adaptive rates by construction.
func shapingMetrics(r any) map[string]float64 {
	res := r.(*experiments.ShapingResult)
	m := map[string]float64{"prior_floor_pct": 100 * res.BlindFloor}
	for _, p := range res.Points {
		key := strings.NewReplacer("/", "_", ".", "", "-", "_", "+", "_").Replace(p.Cell.Label())
		m["detection_pct_"+key] = 100 * p.DetectionRate
		m["accuracy_pct_"+key] = 100 * p.MeanAccuracy
		m["overhead_pct_"+key] = p.OverheadPct
		m["stale_detection_pct_"+key] = 100 * p.Stale.DetectionRate
		m["stale_accuracy_pct_"+key] = 100 * p.Stale.MeanAccuracy
	}
	return m
}

// report extracts the rendered text report from any result type.
func report(r any) (string, error) {
	switch v := r.(type) {
	case *experiments.Table1Result:
		return v.Report, nil
	case *experiments.Figure1Result:
		return v.Report, nil
	case *experiments.Figure2Result:
		return v.Report, nil
	case *experiments.AccuracyResult:
		return v.Report, nil
	case *experiments.DecodeRobustnessResult:
		return v.Report, nil
	case *experiments.BaselineResult:
		return v.Report, nil
	case *experiments.TimingResult:
		return v.Report, nil
	case *experiments.ClassifierAblationResult:
		return v.Report, nil
	case *experiments.PrefetchAblationResult:
		return v.Report, nil
	case *experiments.InterleavedResult:
		return v.Report, nil
	case *experiments.ShapingResult:
		return v.Report, nil
	case *experiments.SoakResult:
		return v.Report, nil
	default:
		return "", fmt.Errorf("unknown result type %T", r)
	}
}

// selected filters the runner list by the -exp flag, erroring on a name
// that matches nothing so a typo cannot silently produce an empty run.
func selected(exp string) ([]runner, error) {
	all := runners()
	if exp == "" {
		return all, nil
	}
	for _, r := range all {
		if r.name == exp {
			return []runner{r}, nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q", exp)
}

// benchEntry is one experiment's perf + domain record in the JSON file.
type benchEntry struct {
	Name        string             `json:"name"`
	NsPerOp     int64              `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// benchFile is the BENCH_prN.json schema: environment and the
// per-experiment measurements. Each file carries only its own entries;
// the gate reads an earlier file by name.
type benchFile struct {
	GoVersion string       `json:"go_version"`
	GOOS      string       `json:"goos"`
	GOARCH    string       `json:"goarch"`
	CPUs      int          `json:"cpus"`
	Workers   int          `json:"workers"`
	Seed      uint64       `json:"seed"`
	Entries   []benchEntry `json:"entries"`
}

// decoderBenchEntries measures the decoding engine's two unit costs —
// building the per-graph path table with its shared-prefix counts (paid
// once per graph thanks to memoization) and one bulk-inference
// constrained decode against the shared table, which aligns each
// distinct report prefix once and allocates only the hypotheses it
// returns — so the perf file carries the numbers the attack throughput
// depends on. The decode's fixture is the seed-21 session, a 3-choice
// walk with 3 report observations, the shortest shape in the table;
// BenchmarkPipeline_ConstrainedDecodeLong prices an 8-choice walk.
func decoderBenchEntries() ([]benchEntry, error) {
	tr, err := whitemirror.Simulate(whitemirror.SessionOptions{Seed: 21})
	if err != nil {
		return nil, err
	}
	atk, err := whitemirror.TrainAttacker(whitemirror.TrainingOptions{Seed: 22})
	if err != nil {
		return nil, err
	}
	recs, _, err := tlsrec.ParseStream(tr.ClientToServer.Bytes, tr.ClientToServer.TimeAt)
	if err != nil {
		return nil, err
	}
	classified := attack.ClassifyRecords(recs, atk.Classifier)
	anchor := recs[0].Time

	build := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := attack.NewPathTable(atk.Graph, atk.MaxChoices); err != nil {
				b.Fatal(err)
			}
		}
	})
	table, err := attack.PathTableFor(atk.Graph, atk.MaxChoices)
	if err != nil {
		return nil, err
	}
	var margin float64
	decode := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			hyps, err := table.Decode(classified, anchor, attack.DecodeParams{})
			if err != nil {
				b.Fatal(err)
			}
			if len(hyps) > 1 {
				margin = hyps[0].Score - hyps[1].Score
			}
		}
	})
	return []benchEntry{
		{
			Name:    "decoder_path_table_build",
			NsPerOp: build.NsPerOp(), BytesPerOp: build.AllocedBytesPerOp(), AllocsPerOp: build.AllocsPerOp(),
			Metrics: map[string]float64{"paths": float64(len(table.Paths))},
		},
		{
			Name:    "decoder_constrained_decode",
			NsPerOp: decode.NsPerOp(), BytesPerOp: decode.AllocedBytesPerOp(), AllocsPerOp: decode.AllocsPerOp(),
			Metrics: map[string]float64{"margin": margin},
		},
	}, nil
}

// datasetBenchEntries measures the corpus pipeline's two unit costs:
// lean streaming generation throughput (the wmdataset hot path — one
// worker so the number is a unit cost, not a parallelism measurement)
// and the state-report serializer whose plan-cached encoder replaced the
// double json.Marshal round trip.
func datasetBenchEntries() ([]benchEntry, error) {
	const points = 32
	var genErr error
	gen := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := dataset.Stream(dataset.Config{N: points, Seed: 17, Lean: true, Workers: 1},
				func(p dataset.Point) error {
					p.Trace.Release()
					return nil
				}); err != nil {
				genErr = err
				b.Fatal(err)
			}
		}
	})
	if genErr != nil {
		return nil, genErr
	}
	p := profiles.Lookup(profiles.Fig2Ubuntu)
	var bundleBytes int
	var encErr error
	enc := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		bld := statejson.NewBuilder(p, "80988062", "iitm-bench", wire.NewRNG(7))
		for i := 0; i < b.N; i++ {
			t1, _, err := bld.Type1(script.SegmentID("S2"), int64(i)*1000)
			if err != nil {
				encErr = err
				b.Fatal(err)
			}
			t2, _, err := bld.Type2(script.SegmentID("S2"), script.SegmentID("S3b"), int64(i)*1000)
			if err != nil {
				encErr = err
				b.Fatal(err)
			}
			bundleBytes = len(t1) + len(t2) + len(bld.RequestBody()) + len(bld.TelemetryBody())
		}
	})
	if encErr != nil {
		return nil, encErr
	}
	return []benchEntry{
		{
			Name:    "dataset_generate_throughput",
			NsPerOp: gen.NsPerOp(), BytesPerOp: gen.AllocedBytesPerOp(), AllocsPerOp: gen.AllocsPerOp(),
			Metrics: map[string]float64{
				"points":       points,
				"ns_per_point": float64(gen.NsPerOp()) / points,
			},
		},
		{
			Name:    "statejson_encode",
			NsPerOp: enc.NsPerOp(), BytesPerOp: enc.AllocedBytesPerOp(), AllocsPerOp: enc.AllocsPerOp(),
			Metrics: map[string]float64{"bundle_bytes": float64(bundleBytes)},
		},
	}, nil
}

// pipelineBenchEntry measures the end-to-end attack read path — pcap
// parse through constrained decode via the streaming-monitor-backed
// InferPcap — on one pre-rendered capture. Its alloc count is the figure
// the zero-copy read path (pcap records parsed in place, in-order
// payloads reassembled without a copy) is accountable for. The capture
// is the seed-21 session, a 3-choice walk.
func pipelineBenchEntry() (benchEntry, error) {
	tr, err := whitemirror.Simulate(whitemirror.SessionOptions{Seed: 21})
	if err != nil {
		return benchEntry{}, err
	}
	pcapBytes, err := whitemirror.CapturePcap(tr, 21)
	if err != nil {
		return benchEntry{}, err
	}
	atk, err := whitemirror.TrainAttacker(whitemirror.TrainingOptions{Seed: 22})
	if err != nil {
		return benchEntry{}, err
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(pcapBytes)))
		for i := 0; i < b.N; i++ {
			if _, err := atk.InferPcap(pcapBytes); err != nil {
				b.Fatal(err)
			}
		}
	})
	mbps := float64(len(pcapBytes)) * float64(res.N) /
		res.T.Seconds() / (1 << 20)
	return benchEntry{
		Name:    "pipeline_attack_throughput",
		NsPerOp: res.NsPerOp(), BytesPerOp: res.AllocedBytesPerOp(), AllocsPerOp: res.AllocsPerOp(),
		Metrics: map[string]float64{
			"capture_bytes": float64(len(pcapBytes)),
			"mb_per_s":      mbps,
		},
	}, nil
}

// pipelineQUICBenchEntry measures the QUIC attack read path — UDP pcap
// parse, burst segmentation and constrained decode via InferPcap — on
// one pre-rendered HTTP/3 capture. Datagram framing roughly doubles the
// packet count per client byte versus TCP, so this entry prices the
// per-packet costs the burst pipeline adds.
func pipelineQUICBenchEntry() (benchEntry, error) {
	quic, err := whitemirror.ParseWire("quic")
	if err != nil {
		return benchEntry{}, err
	}
	tr, err := whitemirror.Simulate(whitemirror.SessionOptions{Seed: 21, Wire: quic})
	if err != nil {
		return benchEntry{}, err
	}
	pcapBytes, err := whitemirror.CapturePcap(tr, 21)
	if err != nil {
		return benchEntry{}, err
	}
	atk, err := whitemirror.TrainAttacker(whitemirror.TrainingOptions{
		Seed: 22, Wire: quic, Sessions: 10,
	})
	if err != nil {
		return benchEntry{}, err
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(pcapBytes)))
		for i := 0; i < b.N; i++ {
			if _, err := atk.InferPcap(pcapBytes); err != nil {
				b.Fatal(err)
			}
		}
	})
	mbps := float64(len(pcapBytes)) * float64(res.N) /
		res.T.Seconds() / (1 << 20)
	return benchEntry{
		Name:    "pipeline_quic_attack_throughput",
		NsPerOp: res.NsPerOp(), BytesPerOp: res.AllocedBytesPerOp(), AllocsPerOp: res.AllocsPerOp(),
		Metrics: map[string]float64{
			"capture_bytes": float64(len(pcapBytes)),
			"mb_per_s":      mbps,
		},
	}, nil
}

// runBenchJSON measures every selected experiment with testing.Benchmark
// and writes the machine-readable file future PRs diff against. Domain
// metrics come from the final benchmark iteration's result.
func runBenchJSON(path string, runs []runner, seed uint64, workers int) error {
	out := benchFile{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		Workers:   parallel.Workers(workers),
		Seed:      seed,
	}
	for _, r := range runs {
		var last any
		var runErr error
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v, err := r.run(seed)
				if err != nil {
					runErr = err
					b.Fatal(err)
				}
				last = v
			}
		})
		if runErr != nil {
			return fmt.Errorf("%s: %w", r.name, runErr)
		}
		out.Entries = append(out.Entries, benchEntry{
			Name:        r.name,
			NsPerOp:     res.NsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
			AllocsPerOp: res.AllocsPerOp(),
			Metrics:     r.metrics(last),
		})
	}
	// The decoder unit benchmarks ride along with the decode experiment
	// and the end-to-end pipeline benchmark with the interleaved one, so
	// a narrow -exp selection keeps the file (and the runtime) to what
	// was asked for.
	for _, r := range runs {
		switch r.name {
		case "table1":
			ds, err := datasetBenchEntries()
			if err != nil {
				return fmt.Errorf("dataset bench: %w", err)
			}
			out.Entries = append(out.Entries, ds...)
		case "decode":
			dec, err := decoderBenchEntries()
			if err != nil {
				return fmt.Errorf("decoder bench: %w", err)
			}
			out.Entries = append(out.Entries, dec...)
		case "interleaved":
			pipe, err := pipelineBenchEntry()
			if err != nil {
				return fmt.Errorf("pipeline bench: %w", err)
			}
			out.Entries = append(out.Entries, pipe)
		case "quic":
			pipe, err := pipelineQUICBenchEntry()
			if err != nil {
				return fmt.Errorf("quic pipeline bench: %w", err)
			}
			out.Entries = append(out.Entries, pipe)
		}
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// checkTolerances is the -check mode's acceptance band: ns/op is noisy
// across machines and load, so it gets a wide band and only regressions
// fail (a speedup never does); allocs/op and bytes/op are near
// deterministic and get a tight one.
type checkTolerances struct {
	time   float64 // fractional ns/op growth allowed (0.25 = +25%)
	allocs float64 // fractional allocs/op growth allowed
	bytes  float64 // fractional bytes/op growth allowed
}

// runCheck is the CI perf-regression gate: rerun the pipeline benchmarks
// — the decoder's unit costs, the TLS and QUIC attack read paths and the
// dataset pipeline, the numbers the BENCH_pr*.json trail tracks — and
// compare against the committed baseline file, failing on any metric
// outside its band. A file without one of these entries fails by the
// "no baseline entry" rule.
func runCheck(path string, tol checkTolerances) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base benchFile
	if err := json.Unmarshal(buf, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	baseline := map[string]benchEntry{}
	for _, e := range base.Entries {
		baseline[e.Name] = e
	}

	var current []benchEntry
	dec, err := decoderBenchEntries()
	if err != nil {
		return fmt.Errorf("decoder bench: %w", err)
	}
	current = append(current, dec...)
	pipe, err := pipelineBenchEntry()
	if err != nil {
		return fmt.Errorf("pipeline bench: %w", err)
	}
	current = append(current, pipe)
	qpipe, err := pipelineQUICBenchEntry()
	if err != nil {
		return fmt.Errorf("quic pipeline bench: %w", err)
	}
	current = append(current, qpipe)
	ds, err := datasetBenchEntries()
	if err != nil {
		return fmt.Errorf("dataset bench: %w", err)
	}
	current = append(current, ds...)

	type metric struct {
		name string
		tol  float64
		get  func(benchEntry) int64
	}
	metrics := []metric{
		{"ns/op", tol.time, func(e benchEntry) int64 { return e.NsPerOp }},
		{"bytes/op", tol.bytes, func(e benchEntry) int64 { return e.BytesPerOp }},
		{"allocs/op", tol.allocs, func(e benchEntry) int64 { return e.AllocsPerOp }},
	}
	var regressions []string
	fmt.Printf("perf gate against %s (go %s, +%.0f%% ns, +%.0f%% bytes, +%.0f%% allocs allowed)\n",
		path, base.GoVersion, 100*tol.time, 100*tol.bytes, 100*tol.allocs)
	for _, e := range current {
		b, ok := baseline[e.Name]
		if !ok {
			// A benchmark the baseline has never seen must fail the gate:
			// letting it skip would mean a rename (or a new hot path) ships
			// unguarded until someone notices the file is stale.
			fmt.Printf("  %-28s NO BASELINE ENTRY — refresh %s\n", e.Name, path)
			regressions = append(regressions,
				fmt.Sprintf("%s: no baseline entry in %s (rename or new benchmark; refresh the file)", e.Name, path))
			continue
		}
		for _, mt := range metrics {
			have, want := mt.get(e), mt.get(b)
			delta := 0.0
			switch {
			case want > 0:
				delta = float64(have-want) / float64(want)
			case have > 0:
				// A zero baseline means any cost at all is a regression.
				delta = mt.tol + 1
			}
			verdict := "ok"
			if delta > mt.tol {
				verdict = "REGRESSION"
				regressions = append(regressions,
					fmt.Sprintf("%s %s: %d vs baseline %d (%+.1f%% > +%.0f%%)",
						e.Name, mt.name, have, want, 100*delta, 100*mt.tol))
			} else if delta < -mt.tol {
				verdict = "improved (consider refreshing the baseline)"
			}
			fmt.Printf("  %-28s %-9s %12d  baseline %12d  %+7.1f%%  %s\n",
				e.Name, mt.name, have, want, 100*delta, verdict)
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d perf regression(s):\n  %s",
			len(regressions), strings.Join(regressions, "\n  "))
	}
	fmt.Println("perf gate passed")
	return nil
}

func main() {
	var (
		exp       = flag.String("exp", "", "run a single experiment (empty = all)")
		seed      = flag.Uint64("seed", 3, "deterministic seed")
		workers   = flag.Int("workers", 0, "worker pool size (0 = WM_WORKERS or GOMAXPROCS)")
		benchJSON = flag.String("benchjson", "", "write machine-readable benchmark results to this file instead of printing reports")
		check     = flag.String("check", "", "perf-regression gate: rerun the pipeline benchmarks and compare against this BENCH json, exiting non-zero on regression")
		tolTime   = flag.Float64("tol-time", 0.25, "-check: allowed fractional ns/op growth")
		tolAllocs = flag.Float64("tol-allocs", 0.10, "-check: allowed fractional allocs/op growth")
		tolBytes  = flag.Float64("tol-bytes", 0.10, "-check: allowed fractional bytes/op growth")
	)
	flag.Parse()
	parallel.SetDefaultWorkers(*workers)

	if *check != "" {
		if err := runCheck(*check, checkTolerances{
			time: *tolTime, allocs: *tolAllocs, bytes: *tolBytes,
		}); err != nil {
			fmt.Fprintf(os.Stderr, "wmbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	runs, err := selected(*exp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wmbench: %v\n", err)
		os.Exit(1)
	}

	if *benchJSON != "" {
		if err := runBenchJSON(*benchJSON, runs, *seed, *workers); err != nil {
			fmt.Fprintf(os.Stderr, "wmbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *benchJSON)
		return
	}

	for _, r := range runs {
		res, err := r.run(*seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wmbench: %s: %v\n", r.name, err)
			os.Exit(1)
		}
		out, err := report(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wmbench: %s: %v\n", r.name, err)
			os.Exit(1)
		}
		fmt.Printf("=== %s ===\n%s\n", r.name, out)
	}
}

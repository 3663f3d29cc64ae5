package whitemirror

// The benchmark harness regenerates every table and figure of the paper's
// evaluation, one testing.B benchmark per artefact (the experiment index
// in DESIGN.md maps each to its paper counterpart). Run all of them with
//
//	go test -bench=. -benchmem
//
// Each benchmark reports domain metrics (accuracy, purity, detection
// rates) via b.ReportMetric alongside the usual time/allocation figures,
// and the rendered reports land in EXPERIMENTS.md via cmd/wmbench.

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/attack"
	"repro/internal/capture"
	"repro/internal/experiments"
	"repro/internal/pcapio"
	"repro/internal/script"
	"repro/internal/tlsrec"
)

// BenchmarkTable1_DatasetAttributes regenerates Table I: the attribute
// inventory of a 100-viewer synthetic IITM-Bandersnatch dataset.
func BenchmarkTable1_DatasetAttributes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(100, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.N), "viewers")
	}
}

// BenchmarkFigure1_StreamingProcess regenerates Figure 1: the
// check-pointed streaming walkthrough (default at Q1, non-default at Q2)
// with the type-1/type-2 state reports on the timeline.
func BenchmarkFigure1_StreamingProcess(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure1(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Events)), "events")
	}
}

// BenchmarkFigure2_RecordLengthDistribution regenerates Figure 2: the
// SSL record-length histograms for the (Desktop, Firefox, Ethernet,
// Ubuntu) and (Desktop, Firefox, Ethernet, Windows) conditions, binned
// exactly as printed in the paper.
func BenchmarkFigure2_RecordLengthDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure2(5, 2)
		if err != nil {
			b.Fatal(err)
		}
		// Purity of the type-1 and type-2 bins, averaged over panels
		// (the paper's bars sit at 100%).
		var purity float64
		for _, p := range res.Panels {
			purity += p.Type1Purity() + p.Type2Purity()
		}
		b.ReportMetric(purity/float64(2*len(res.Panels)), "%bin-purity")
	}
}

// BenchmarkResult_ChoiceAccuracy regenerates the §V headline: choice
// recovery over 10 sessions under differing operational conditions; the
// paper reports 96% accuracy in the worst case.
func BenchmarkResult_ChoiceAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Accuracy(10, 2, 3)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.WorstCase, "%worst-case")
		b.ReportMetric(100*res.Mean, "%mean")
	}
}

// BenchmarkAblation_BaselinesIntraVideo regenerates the §II argument:
// prior-work inter-video classifiers (bitrate fingerprinting, burst kNN)
// hover near chance on same-title branches while separating distinct
// titles.
func BenchmarkAblation_BaselinesIntraVideo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Baselines(20, 7)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.IntraTitleAccuracy["bitrate"], "%bitrate-intra")
		b.ReportMetric(100*res.InterTitleAccuracy["bitrate"], "%bitrate-inter")
	}
}

// BenchmarkCountermeasures regenerates the §VI countermeasure table:
// record-length attack accuracy with the JSON padded, split and
// compressed, by an attacker profiled before the policy deployed and by
// one re-profiled under it, against the blind floor.
func BenchmarkCountermeasures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Shaping(5, experiments.DefaultReportCells(), 9)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.Points[0].MeanAccuracy, "%undefended")
		b.ReportMetric(100*res.Points[1].Stale.MeanAccuracy, "%padded")
		b.ReportMetric(100*res.BlindFloor, "%prior-floor")
	}
}

// BenchmarkTimingSideChannel regenerates the §VI warning: with record
// lengths padded, the check-pointed pause and prefetch-discard volume
// still reveal choice points and decisions.
func BenchmarkTimingSideChannel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Timing(6, 11)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.EventDetectionRate, "%detected")
		b.ReportMetric(100*res.DecisionAccuracy, "%decision-acc")
	}
}

// BenchmarkAblation_Classifiers compares the paper's interval-band rule
// against nearest-centroid and kNN on the record classification task.
func BenchmarkAblation_Classifiers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.ClassifierAblation(5)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.PerClassifier["interval-band"], "%interval-band")
		b.ReportMetric(100*res.PerClassifier["knn-5"], "%knn")
	}
}

// BenchmarkAblation_Prefetch shows the timing channel depends on the
// player's default-branch prefetch: disabling it removes the redundant
// download that separates non-default choices.
func BenchmarkAblation_Prefetch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.PrefetchAblation(4, 13)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.WithPrefetch, "%with-prefetch")
		b.ReportMetric(100*res.WithoutPrefetch, "%without")
	}
}

// BenchmarkScenario_TLS13 regenerates the modern-stack sweep: detection
// and decode accuracy when the service negotiates the TLS 1.3 record
// layer, across the padding policies.
func BenchmarkScenario_TLS13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Shaping(4, experiments.DefaultTLSCells(), 3)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range res.Points {
			if p.Cell.Wire.String() == "tls1.3" {
				b.ReportMetric(100*p.MeanAccuracy, "%tls13-accuracy")
				b.ReportMetric(100*p.DetectionRate, "%tls13-detection")
			}
		}
	}
}

// BenchmarkPipeline_AttackThroughput measures the attack pipeline itself
// (pcap parse → reassembly → record extraction → classification →
// decode) on one pre-rendered capture, the figure a deployment would
// care about. Its fixture is the seed-21 session, a 3-choice walk, so
// its decode step is the cheapest in the table.
func BenchmarkPipeline_AttackThroughput(b *testing.B) {
	tr, err := Simulate(SessionOptions{Seed: 21})
	if err != nil {
		b.Fatal(err)
	}
	pcapBytes, err := CapturePcap(tr, 21)
	if err != nil {
		b.Fatal(err)
	}
	atk, err := TrainAttacker(TrainingOptions{Seed: 22})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(pcapBytes)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := atk.InferPcap(pcapBytes); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipeline_QUICAttackThroughput measures the QUIC pipeline
// (pcap parse → UDP demux → burst segmentation → burst-total
// classification → decode) on one pre-rendered HTTP/3 capture — the
// same deployment figure as the TCP pipeline benchmark, without TCP
// reassembly or record scanning in the loop.
func BenchmarkPipeline_QUICAttackThroughput(b *testing.B) {
	quic := mustWire(b, "quic")
	tr, err := Simulate(SessionOptions{Seed: 21, Wire: quic})
	if err != nil {
		b.Fatal(err)
	}
	pcapBytes, err := CapturePcap(tr, 21)
	if err != nil {
		b.Fatal(err)
	}
	atk, err := TrainAttacker(TrainingOptions{
		Seed: 22, Wire: quic, Sessions: 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(pcapBytes)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := atk.InferPcap(pcapBytes); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenario_QUIC regenerates the HTTP/3 sweep's headline row:
// detection and decode accuracy from burst features under two noise
// flows at default datagram sizing.
func BenchmarkScenario_QUIC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Shaping(4, []experiments.ShapingCell{{Wire: mustWire(b, "quic"), NoiseFlows: 2}}, 3)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range res.Points {
			b.ReportMetric(100*p.MeanAccuracy, "%quic-accuracy")
			b.ReportMetric(100*p.DetectionRate, "%quic-detection")
		}
	}
}

// BenchmarkPipeline_AttackThroughputMulti measures the attack read path
// on an interleaved multi-flow capture (the session plus six noise
// flows) streamed through a Monitor in one Feed: the per-flow costs a
// link tap adds over the single-flow BenchmarkPipeline_AttackThroughput.
// The session is the same seed-21 3-choice walk.
func BenchmarkPipeline_AttackThroughputMulti(b *testing.B) {
	tr, err := Simulate(SessionOptions{Seed: 21})
	if err != nil {
		b.Fatal(err)
	}
	pcapBytes, err := CapturePcapMulti(tr, 21, 6)
	if err != nil {
		b.Fatal(err)
	}
	atk, err := TrainAttacker(TrainingOptions{Seed: 22})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(pcapBytes)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewMonitor(atk, MonitorOptions{})
		if err := m.Feed(pcapBytes); err != nil {
			b.Fatal(err)
		}
		if _, err := m.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipeline_AttackThroughputInterleaved measures InferPcap on a
// capture whose consecutive packets never share a conversation: the
// seed-21 session rendered twice, from two client ports, its frames
// merged strictly one for one. The Monitor routes each packet through
// the flow of the packet before it when they match, so this capture
// takes the other path, a canonical key and a flow-table lookup, on
// every packet. Both conversations carry the same records, and of equal
// sessions the first seen is attacked.
func BenchmarkPipeline_AttackThroughputInterleaved(b *testing.B) {
	tr, err := Simulate(SessionOptions{Seed: 21})
	if err != nil {
		b.Fatal(err)
	}
	var renders [2][]pcapio.Record
	for i := range renders {
		ep := capture.DefaultEndpoints()
		ep.ClientPort += uint16(i)
		var buf bytes.Buffer
		if err := capture.WritePcap(&buf, tr, capture.Options{Endpoints: ep, Seed: 21}); err != nil {
			b.Fatal(err)
		}
		rd, err := pcapio.NewBytesReader(buf.Bytes())
		if err != nil {
			b.Fatal(err)
		}
		if renders[i], err = rd.ReadAll(); err != nil {
			b.Fatal(err)
		}
	}
	if len(renders[0]) != len(renders[1]) {
		b.Fatalf("renders hold %d and %d frames", len(renders[0]), len(renders[1]))
	}
	var buf bytes.Buffer
	w := pcapio.NewWriter(&buf)
	if err := w.WriteHeader(); err != nil {
		b.Fatal(err)
	}
	for i, a := range renders[0] {
		// The renders differ only in the client port, so frame i of each
		// carries the same timestamp and the merge stays in time order.
		c := renders[1][i]
		if !c.Timestamp.Equal(a.Timestamp) {
			b.Fatalf("frame %d: renders stamped %v and %v", i, a.Timestamp, c.Timestamp)
		}
		for _, pkt := range []pcapio.Record{a, c} {
			if err := w.WritePacket(pkt.Timestamp, pkt.Data); err != nil {
				b.Fatal(err)
			}
		}
	}
	pcapBytes := buf.Bytes()
	atk, err := TrainAttacker(TrainingOptions{Seed: 22})
	if err != nil {
		b.Fatal(err)
	}
	inf, err := atk.InferPcap(pcapBytes)
	if err != nil {
		b.Fatal(err)
	}
	if want := tr.GroundTruthDecisions(); !slices.Equal(inf.Decisions, want) {
		b.Fatalf("InferPcap decisions %v, want %v", inf.Decisions, want)
	}
	b.SetBytes(int64(len(pcapBytes)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := atk.InferPcap(pcapBytes); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipeline_PathTableBuild measures constructing the per-graph
// decoding table — the cost the memoization amortizes: it is paid once
// per (graph, maxChoices) instead of once per inference, where the
// pre-table decoder re-enumerated every root-to-ending path.
func BenchmarkPipeline_PathTableBuild(b *testing.B) {
	g := script.Bandersnatch()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := attack.NewPathTable(g, script.BandersnatchMaxChoices); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipeline_ConstrainedDecode measures one graph-constrained
// decode against the shared memoized table — the bulk-inference unit
// cost: time-aware alignment of every candidate walk, no path
// re-enumeration. Walks share the alignment rows of their common report
// prefixes, so the 196 Bandersnatch walks cost 390 rows rather than
// 2,640, and only the top-k hypotheses returned are allocated. Its
// fixture is the seed-21 session, a 3-choice walk (the shortest shape in
// the table, 3 report observations); BenchmarkPipeline_ConstrainedDecodeLong
// prices the same decode at full length.
func BenchmarkPipeline_ConstrainedDecode(b *testing.B) {
	benchConstrainedDecode(b, 21, 3)
}

// BenchmarkPipeline_ConstrainedDecodeLong is BenchmarkPipeline_ConstrainedDecode
// on the seed-1 session, an 8-choice walk with 10 report observations,
// so a decoder regression that grows with session length shows at full
// size rather than at the 3-choice walk's third of it.
func BenchmarkPipeline_ConstrainedDecodeLong(b *testing.B) {
	benchConstrainedDecode(b, 1, 8)
}

// benchConstrainedDecode times PathTable.Decode on the client records of
// the session simulated from seed, whose walk must make choices choices.
// It reports the decode's report observations (in-band records).
func benchConstrainedDecode(b *testing.B, seed uint64, choices int) {
	tr, err := Simulate(SessionOptions{Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	if got := len(tr.GroundTruthDecisions()); got != choices {
		b.Fatalf("seed %d walk makes %d choices, want %d", seed, got, choices)
	}
	atk, err := TrainAttacker(TrainingOptions{Seed: 22})
	if err != nil {
		b.Fatal(err)
	}
	recs, _, err := tlsrec.ParseStream(tr.ClientToServer.Bytes, tr.ClientToServer.TimeAt)
	if err != nil {
		b.Fatal(err)
	}
	classified := attack.ClassifyRecords(recs, atk.Classifier)
	reports := 0
	for _, r := range classified {
		if r.Class != attack.ClassOther {
			reports++
		}
	}
	table, err := attack.PathTableFor(atk.Graph, atk.MaxChoices)
	if err != nil {
		b.Fatal(err)
	}
	anchor := recs[0].Time
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hyps, err := table.Decode(classified, anchor, attack.DecodeParams{})
		if err != nil {
			b.Fatal(err)
		}
		if len(hyps) == 0 {
			b.Fatal("no hypotheses")
		}
	}
	b.ReportMetric(float64(reports), "reports")
}

// BenchmarkPipeline_TrainAttacker measures one attacker's profiling as
// perfbench's attack workloads train it: Fig2Ubuntu, three lean
// sessions simulated on one worker, seed 22, then band training. It is
// the per-condition unit of every attack workload's set-up.
func BenchmarkPipeline_TrainAttacker(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := TrainAttacker(TrainingOptions{Condition: ConditionUbuntu, Sessions: 3, Seed: 22, Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipeline_SessionSimulation measures end-to-end session
// simulation cost (the dominant cost of dataset generation).
func BenchmarkPipeline_SessionSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(SessionOptions{Seed: uint64(i) + 1}); err != nil {
			b.Fatal(err)
		}
	}
}

package attack

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/capture"
	"repro/internal/media"
	"repro/internal/profiles"
	"repro/internal/script"
	"repro/internal/session"
	"repro/internal/tlsrec"
	"repro/internal/viewer"
	"repro/internal/wire"
)

// runSession simulates one Bandersnatch viewing under cond.
func runSession(t testing.TB, seed uint64, cond profiles.Condition) *session.Trace {
	t.Helper()
	g := script.Bandersnatch()
	enc := media.Encode(g, media.DefaultLadder, 42)
	pop := viewer.SamplePopulation(1, wire.NewRNG(seed))
	tr, err := session.Run(session.Config{
		Graph: g, Encoding: enc, Viewer: pop[0],
		Condition: cond, SessionID: "atk", Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func trainedAttacker(t testing.TB, cond profiles.Condition, trainSeeds []uint64) *Attacker {
	t.Helper()
	var traces []*session.Trace
	for _, s := range trainSeeds {
		traces = append(traces, runSession(t, s, cond))
	}
	// Keep profiling until both report types have been observed (a
	// training viewer who took only defaults never sent a type-2).
	for extra := uint64(0); extra < 12 && !bothClassesPresent(traces); extra++ {
		traces = append(traces, runSession(t, trainSeeds[0]+1000+extra, cond))
	}
	a, err := NewAttacker(traces, script.Bandersnatch(), script.BandersnatchMaxChoices)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func bothClassesPresent(traces []*session.Trace) bool {
	var t1, t2 bool
	for _, e := range TrainingSetFromTraces(traces) {
		switch e.Class {
		case ClassType1:
			t1 = true
		case ClassType2:
			t2 = true
		}
	}
	return t1 && t2
}

func TestEndToEndAttackRecoversChoices(t *testing.T) {
	cond := profiles.Fig2Ubuntu
	a := trainedAttacker(t, cond, []uint64{100, 101})

	for seed := uint64(1); seed <= 5; seed++ {
		tr := runSession(t, seed, cond)
		var buf bytes.Buffer
		if err := capture.WritePcap(&buf, tr, capture.Options{Seed: seed}); err != nil {
			t.Fatal(err)
		}
		inf, err := a.InferPcap(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		truth := tr.GroundTruthDecisions()
		correct, total := ScoreDecisions(inf.Decisions, truth)
		if correct != total {
			t.Errorf("seed %d: recovered %d/%d decisions (truth %v, got %v)",
				seed, correct, total, truth, inf.Decisions)
		}
		// The reconstructed path must equal the played path.
		if len(inf.Path.Segments) != len(tr.Result.Path.Segments) {
			t.Errorf("seed %d: path length %d, want %d",
				seed, len(inf.Path.Segments), len(tr.Result.Path.Segments))
			continue
		}
		for i := range inf.Path.Segments {
			if inf.Path.Segments[i] != tr.Result.Path.Segments[i] {
				t.Errorf("seed %d: path[%d] = %s, want %s",
					seed, i, inf.Path.Segments[i], tr.Result.Path.Segments[i])
			}
		}
	}
}

func TestAttackAcrossConditions(t *testing.T) {
	// Train and test per condition, as the paper does; the attack must
	// work under every grid condition.
	conds := []profiles.Condition{
		profiles.Fig2Ubuntu,
		profiles.Fig2Windows,
		{OS: profiles.OSMac, Platform: profiles.PlatformLaptop,
			Browser: profiles.BrowserChrome, Medium: "wireless", TrafficTime: "night"},
	}
	for _, cond := range conds {
		a := trainedAttacker(t, cond, []uint64{200})
		tr := runSession(t, 7, cond)
		obs := observationFromTrace(t, tr)
		inf, err := a.Infer(obs)
		if err != nil {
			t.Fatalf("%s: %v", cond, err)
		}
		correct, total := ScoreDecisions(inf.Decisions, tr.GroundTruthDecisions())
		if correct != total {
			t.Errorf("%s: %d/%d decisions", cond, correct, total)
		}
	}
}

// observationFromTrace builds an Observation directly from the client
// stream bytes and the server records, bypassing pcap (faster for
// repeated tests).
func observationFromTrace(t *testing.T, tr *session.Trace) *Observation {
	t.Helper()
	cRecs, _, err := tlsrec.ParseStream(tr.ClientToServer.Bytes, tr.ClientToServer.TimeAt)
	if err != nil {
		t.Fatal(err)
	}
	return &Observation{ClientRecords: cRecs, ServerRecords: tr.ServerRecords}
}

func TestTrainingSetLabels(t *testing.T) {
	tr := runSession(t, 11, profiles.Fig2Ubuntu)
	examples := TrainingSetFromTraces([]*session.Trace{tr})
	counts := map[Class]int{}
	for _, e := range examples {
		counts[e.Class]++
	}
	if counts[ClassType1] == 0 {
		t.Error("no type-1 training examples")
	}
	if counts[ClassOther] == 0 {
		t.Error("no 'other' training examples")
	}
	// Type-1 count equals choices met.
	if counts[ClassType1] != len(tr.Result.Choices) {
		t.Errorf("type-1 examples %d != choices %d", counts[ClassType1], len(tr.Result.Choices))
	}
}

func TestIntervalBandTrainerSeparation(t *testing.T) {
	examples := []Example{
		{2211, ClassType1}, {2212, ClassType1}, {2213, ClassType1},
		{3000, ClassType2}, {3010, ClassType2},
		{400, ClassOther}, {4600, ClassOther},
	}
	clf, err := (&IntervalBandTrainer{}).Train(examples)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		length int
		want   Class
	}{
		{2212, ClassType1}, {2211, ClassType1},
		{3005, ClassType2},
		{400, ClassOther}, {10000, ClassOther}, {2600, ClassOther},
	}
	for _, c := range cases {
		got, conf := clf.Classify(c.length)
		if got != c.want {
			t.Errorf("Classify(%d) = %v, want %v", c.length, got, c.want)
		}
		if conf <= 0 || conf > 1 {
			t.Errorf("Classify(%d) confidence %v out of range", c.length, conf)
		}
	}
}

func TestIntervalBandTrainerRejectsOverlap(t *testing.T) {
	examples := []Example{
		{2500, ClassType1}, {2502, ClassType2}, // margin makes these overlap
	}
	if _, err := (&IntervalBandTrainer{}).Train(examples); err == nil {
		t.Error("overlapping bands accepted")
	}
}

func TestIntervalBandTrainerRejectsPollutedOther(t *testing.T) {
	examples := []Example{
		{2211, ClassType1}, {3000, ClassType2},
		{2212, ClassOther}, // inside the type-1 band
	}
	if _, err := (&IntervalBandTrainer{}).Train(examples); err == nil {
		t.Error("polluted band accepted")
	}
}

func TestIntervalBandTrainerNeedsBothClasses(t *testing.T) {
	if _, err := (&IntervalBandTrainer{}).Train([]Example{{2211, ClassType1}}); err == nil {
		t.Error("missing type-2 class accepted")
	}
}

func TestNearestCentroidClassifier(t *testing.T) {
	examples := []Example{
		{2211, ClassType1}, {2213, ClassType1},
		{3000, ClassType2}, {3010, ClassType2},
		{400, ClassOther}, {450, ClassOther},
	}
	clf, err := (NearestCentroidTrainer{}).Train(examples)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := clf.Classify(2212); got != ClassType1 {
		t.Errorf("Classify(2212) = %v", got)
	}
	if got, _ := clf.Classify(3003); got != ClassType2 {
		t.Errorf("Classify(3003) = %v", got)
	}
	if got, _ := clf.Classify(430); got != ClassOther {
		t.Errorf("Classify(430) = %v", got)
	}
}

func TestKNNClassifier(t *testing.T) {
	examples := []Example{
		{2211, ClassType1}, {2212, ClassType1}, {2213, ClassType1},
		{3000, ClassType2}, {3005, ClassType2}, {3010, ClassType2},
		{400, ClassOther}, {420, ClassOther}, {440, ClassOther},
	}
	clf, err := (KNNTrainer{K: 3}).Train(examples)
	if err != nil {
		t.Fatal(err)
	}
	if got, conf := clf.Classify(2212); got != ClassType1 || conf != 1 {
		t.Errorf("Classify(2212) = %v/%v", got, conf)
	}
	if got, _ := clf.Classify(3002); got != ClassType2 {
		t.Errorf("Classify(3002) = %v", got)
	}
	if got, _ := clf.Classify(410); got != ClassOther {
		t.Errorf("Classify(410) = %v", got)
	}
}

func TestKNNTrainerEmpty(t *testing.T) {
	if _, err := (KNNTrainer{}).Train(nil); err == nil {
		t.Error("empty knn training accepted")
	}
}

func TestDecodeChoicesRule(t *testing.T) {
	mk := func(cls Class, at int64) ClassifiedRecord {
		return ClassifiedRecord{
			Record: tlsrec.Record{Time: time.Unix(at, 0)},
			Class:  cls, Confidence: 1,
		}
	}
	recs := []ClassifiedRecord{
		mk(ClassOther, 1),
		mk(ClassType1, 2), // Q1: default (no type-2 before next type-1)
		mk(ClassOther, 3),
		mk(ClassType1, 4), // Q2: non-default
		mk(ClassType2, 5),
		mk(ClassType1, 6), // Q3: default
	}
	choices := DecodeChoices(recs)
	if len(choices) != 3 {
		t.Fatalf("choices = %d", len(choices))
	}
	want := []bool{true, false, true}
	for i, w := range want {
		if choices[i].TookDefault != w {
			t.Errorf("choice %d default = %v, want %v", i, choices[i].TookDefault, w)
		}
	}
	if choices[1].DecidedAt.Unix() != 5 {
		t.Errorf("choice 1 DecidedAt = %v", choices[1].DecidedAt)
	}
}

func TestDecodeChoicesOrphanType2Ignored(t *testing.T) {
	recs := []ClassifiedRecord{
		{Record: tlsrec.Record{}, Class: ClassType2, Confidence: 1},
	}
	if got := DecodeChoices(recs); len(got) != 0 {
		t.Errorf("orphan type-2 produced %d choices", len(got))
	}
}

func TestConstrainedDecodeRepairsSlip(t *testing.T) {
	g := script.Bandersnatch()
	// Ground truth: all defaults — in the case-study graph the default at
	// the job-offer choice ends the film early, so this is a 3-choice path.
	p, err := g.Walk([]bool{true, true, true})
	if err != nil || len(p.Decisions) != 3 {
		t.Fatalf("walk: %v, decisions %d", err, len(p.Decisions))
	}
	// Observed events: the type-1 at Q2 was missed (classifier slip), so
	// the plain decode would see only 2 questions.
	recs := []ClassifiedRecord{
		{Class: ClassType1, Confidence: 1},
		{Class: ClassType1, Confidence: 1},
	}
	hyp, err := ConstrainedDecode(g, recs, script.BandersnatchMaxChoices)
	if err != nil {
		t.Fatal(err)
	}
	// The all-defaults path scores best: 2 of its 3 expected type-1
	// events match with one gap, beating paths with non-defaults (those
	// expect type-2 events never observed) and longer paths (more gaps).
	if len(hyp.Decisions) != 3 {
		t.Fatalf("repaired decisions = %v", hyp.Decisions)
	}
	for i, d := range hyp.Decisions {
		if !d {
			t.Errorf("decision %d = non-default, want default", i)
		}
	}
}

func TestScoreDecisions(t *testing.T) {
	cases := []struct {
		inf, truth     []bool
		correct, total int
	}{
		{[]bool{true, false}, []bool{true, false}, 2, 2},
		{[]bool{true, true}, []bool{true, false}, 1, 2},
		{[]bool{true}, []bool{true, false}, 1, 2},
		{[]bool{true, false, true}, []bool{true, false}, 2, 3},
		{nil, nil, 0, 0},
	}
	for i, c := range cases {
		correct, total := ScoreDecisions(c.inf, c.truth)
		if correct != c.correct || total != c.total {
			t.Errorf("case %d: ScoreDecisions = %d/%d, want %d/%d",
				i, correct, total, c.correct, c.total)
		}
	}
}

// TestMonitorErrors pins the Monitor's error handling: a non-pcap input
// (refused by Feed), a capture cut mid-record (refused by Close) and a
// capture on which every Infer fails (an attacker whose MaxChoices is too
// short for any complete walk of the graph: Close reports Infer's error,
// not ErrNoTLSConversation) fail with the same error through InferPcap as
// through Feed + Close, in batch and window mode, and a closed monitor
// refuses both feed entry points.
func TestMonitorErrors(t *testing.T) {
	atk := trainedAttacker(t, profiles.Fig2Ubuntu, []uint64{101})
	full := capturedSession(t, runSession(t, 7, profiles.Fig2Ubuntu), 7)
	shallow := *atk
	shallow.MaxChoices = 1
	for _, tc := range []struct {
		name string
		atk  *Attacker
		data []byte
	}{
		{"not a pcap", atk, bytes.Repeat([]byte("not a pcap "), 4)},
		{"cut mid-record", atk, full[:len(full)-1]},
		{"Infer fails", &shallow, full},
	} {
		_, want := tc.atk.InferPcap(tc.data)
		if want == nil {
			t.Fatalf("%s: InferPcap accepted the capture", tc.name)
		}
		for _, mode := range []struct {
			name string
			win  *Window
		}{{"batch", nil}, {"window", &Window{}}} {
			m := NewMonitor(tc.atk, MonitorOptions{Window: mode.win})
			feedErr := m.Feed(tc.data)
			_, closeErr := m.Close()
			got := closeErr
			if feedErr != nil {
				got = feedErr
			}
			if got == nil || got.Error() != want.Error() {
				t.Errorf("%s/%s: Feed + Close error %v, want %v", tc.name, mode.name, got, want)
			}
			if closeErr == nil || closeErr.Error() != want.Error() {
				t.Errorf("%s/%s: Close error %v, want %v", tc.name, mode.name, closeErr, want)
			}
			if err := m.Feed(full); err == nil {
				t.Errorf("%s/%s: Feed after Close succeeded", tc.name, mode.name)
			}
			if err := m.FeedPacket(time.Unix(0, 0), make([]byte, 1200)); err == nil {
				t.Errorf("%s/%s: FeedPacket after Close succeeded", tc.name, mode.name)
			}
		}
	}
}

func TestObservationApplicationRecords(t *testing.T) {
	obs := &Observation{ClientRecords: []tlsrec.Record{
		{Type: tlsrec.ContentHandshake, Length: 517},
		{Type: tlsrec.ContentApplicationData, Length: 2212},
		{Type: tlsrec.ContentChangeCipherSpec, Length: 1},
	}}
	if got := obs.ApplicationRecords(); len(got) != 1 || got[0].Length != 2212 {
		t.Errorf("ApplicationRecords = %+v", got)
	}
}

func TestClassifierNames(t *testing.T) {
	ib := &IntervalBand{}
	nc := &NearestCentroid{Centroids: map[Class]float64{}}
	knn := &KNN{K: 5}
	for _, c := range []Classifier{ib, nc, knn} {
		if c.Name() == "" {
			t.Errorf("%T has empty name", c)
		}
	}
	if Class(0).String() != "others" || ClassType1.String() != "type-1" || ClassType2.String() != "type-2" {
		t.Error("class names wrong")
	}
}

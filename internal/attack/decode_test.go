package attack

import (
	"testing"
	"time"

	"repro/internal/script"
	"repro/internal/tlsrec"
)

// stubClassifier maps crafted record lengths to classes for decoder
// scenarios: 2000-2999 → type-1, 3000-3999 → type-2, everything else
// "other", all at full confidence.
type stubClassifier struct{}

func (stubClassifier) Name() string { return "stub" }

func (stubClassifier) Classify(length int) (Class, float64) {
	switch {
	case length >= 2000 && length < 3000:
		return ClassType1, 1
	case length >= 3000 && length < 4000:
		return ClassType2, 1
	}
	return ClassOther, 1
}

// at builds a classified record with a capture timestamp offset seconds
// after the epoch anchor.
func classifiedAt(cls Class, offset float64) ClassifiedRecord {
	return ClassifiedRecord{
		Record:     tlsrec.Record{Time: anchorEpoch.Add(time.Duration(offset * float64(time.Second)))},
		Class:      cls,
		Confidence: 1,
	}
}

var anchorEpoch = time.Unix(1735689600, 0)

func TestPathTableMemoized(t *testing.T) {
	g := script.Bandersnatch()
	t1, err := PathTableFor(g, script.BandersnatchMaxChoices)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := PathTableFor(g, script.BandersnatchMaxChoices)
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 {
		t.Error("PathTableFor rebuilt the table for the same (graph, maxChoices)")
	}
	t3, err := PathTableFor(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if t3 == t1 {
		t.Error("different maxChoices shared a table")
	}
	// The cache keys on graph content, not pointer identity: a fresh but
	// identical graph (every script.Bandersnatch() call builds one) hits
	// the same table instead of leaking a new one per build.
	t4, err := PathTableFor(script.Bandersnatch(), script.BandersnatchMaxChoices)
	if err != nil {
		t.Fatal(err)
	}
	if t4 != t1 {
		t.Error("identical graph content rebuilt the table")
	}
	// A structurally different graph gets its own table.
	t5, err := PathTableFor(script.TinyScript(), script.BandersnatchMaxChoices)
	if err != nil {
		t.Fatal(err)
	}
	if t5 == t1 {
		t.Error("structurally different graphs shared a table")
	}
}

// TestPathTableForHitAllocs pins the cost of a cache hit, which every
// Attacker.Infer pays: the key is appended into a stack buffer and looked
// up without a string copy, so a hit allocates only the graph's Segments
// slice.
func TestPathTableForHitAllocs(t *testing.T) {
	g := script.Bandersnatch()
	if _, err := PathTableFor(g, script.BandersnatchMaxChoices); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := PathTableFor(g, script.BandersnatchMaxChoices); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("a PathTableFor cache hit made %.0f allocations, want at most 1", allocs)
	}
}

func TestPathTableFirstPathIsAllDefaults(t *testing.T) {
	tab, err := NewPathTable(script.Bandersnatch(), script.BandersnatchMaxChoices)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Paths) == 0 {
		t.Fatal("empty table")
	}
	for i, d := range tab.Paths[0].Decisions {
		if !d {
			t.Errorf("first enumerated path takes the alternative at choice %d", i)
		}
	}
}

func TestPathTableEventTimeline(t *testing.T) {
	g := script.TinyScript() // Seg0(120s) -> Q1 -> S1/S1'(120s) -> Q2seg(120s) -> Q2 -> endings
	tab, err := NewPathTable(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Find the [default, non-default] path.
	var p *TablePath
	for i := range tab.Paths {
		d := tab.Paths[i].Decisions
		if len(d) == 2 && d[0] && !d[1] {
			p = &tab.Paths[i]
		}
	}
	if p == nil {
		t.Fatal("no [default, non-default] path in table")
	}
	// Expected: T1 at 120s (Seg0 plays out), T1 at 365s (three segments
	// plus the nominal half of Q1's ten-second window), T2 at 370s
	// (mid-window).
	if len(p.Events) != 3 {
		t.Fatalf("events = %d, want 3", len(p.Events))
	}
	wantOffsets := []float64{120, 365, 370}
	wantClasses := []Class{ClassType1, ClassType1, ClassType2}
	for i, e := range p.Events {
		if e.Class != wantClasses[i] {
			t.Errorf("event %d class = %v, want %v", i, e.Class, wantClasses[i])
		}
		if diff := e.Offset - wantOffsets[i]; diff < -0.01 || diff > 0.01 {
			t.Errorf("event %d offset = %.1f, want %.1f", i, e.Offset, wantOffsets[i])
		}
		if e.Slack <= 0 {
			t.Errorf("event %d has no slack", i)
		}
	}
	// Slack must grow along the path (drift and deliberation accumulate).
	if p.Events[1].Slack <= p.Events[0].Slack {
		t.Errorf("slack did not grow: %.1f then %.1f", p.Events[0].Slack, p.Events[1].Slack)
	}
}

// TestWalkPathsCallbackSlicesRetainable is the slice-aliasing regression
// test: the pre-table enumerator handed callbacks sub-slices of a shared
// backing array, so a callback that retained them (as the path table
// does) saw later branches overwrite earlier decisions.
func TestWalkPathsCallbackSlicesRetainable(t *testing.T) {
	g := script.Bandersnatch()
	var retained [][]bool
	g.WalkPaths(script.BandersnatchMaxChoices, func(p script.Path) {
		retained = append(retained, p.Decisions)
	})
	// Re-enumerate and compare: if the callback slices aliased shared
	// state, the retained copies would have been clobbered.
	i := 0
	g.WalkPaths(script.BandersnatchMaxChoices, func(p script.Path) {
		if i >= len(retained) {
			t.Fatalf("second enumeration yielded more paths (%d+)", i)
		}
		if !boolsEqual(retained[i], p.Decisions) {
			t.Errorf("retained path %d was clobbered: %v vs %v", i, retained[i], p.Decisions)
		}
		i++
	})
	if i != len(retained) {
		t.Errorf("enumeration count changed: %d vs %d", i, len(retained))
	}
	// Distinct paths must be distinct vectors.
	seen := map[string]bool{}
	for _, d := range retained {
		key := ""
		for _, v := range d {
			if v {
				key += "D"
			} else {
				key += "A"
			}
		}
		if seen[key] {
			t.Errorf("duplicate decision vector %s — aliasing corrupted enumeration", key)
		}
		seen[key] = true
	}
}

func TestDecodeReturnsIndependentDecisionCopies(t *testing.T) {
	g := script.Bandersnatch()
	tab, err := PathTableFor(g, script.BandersnatchMaxChoices)
	if err != nil {
		t.Fatal(err)
	}
	recs := []ClassifiedRecord{classifiedAt(ClassOther, 0.2), classifiedAt(ClassType1, 48)}
	hyps, err := tab.Decode(recs, anchorEpoch, DecodeParams{})
	if err != nil {
		t.Fatal(err)
	}
	want := append([]bool(nil), hyps[0].Decisions...)
	for i := range hyps[0].Decisions {
		hyps[0].Decisions[i] = !hyps[0].Decisions[i]
	}
	again, err := tab.Decode(recs, anchorEpoch, DecodeParams{})
	if err != nil {
		t.Fatal(err)
	}
	if !boolsEqual(again[0].Decisions, want) {
		t.Errorf("mutating a returned hypothesis corrupted the shared table: %v vs %v",
			again[0].Decisions, want)
	}
}

// TestDecodeShortPathBiasFixed is the unit form of the session-003 bug:
// when band drift hides every type-1 and some type-2 reports, only four
// late-session type-2 observations survive. The pre-fix scorer preferred
// the three-choice escape path (fewest penalties in total); the
// time-aware, normalized score must keep a path long enough to explain a
// report captured ~400s into the session.
func TestDecodeShortPathBiasFixed(t *testing.T) {
	g := script.Bandersnatch()
	recs := []ClassifiedRecord{
		classifiedAt(ClassOther, 0.2), // chunk request anchors the clock
		classifiedAt(ClassType2, 56),  // Q1 non-default
		classifiedAt(ClassType2, 90),  // Q2 non-default
		classifiedAt(ClassType2, 224), // Q5 non-default
		classifiedAt(ClassType2, 399), // Q8 non-default
	}
	hyp, err := ConstrainedDecode(g, recs, script.BandersnatchMaxChoices)
	if err != nil {
		t.Fatal(err)
	}
	if len(hyp.Decisions) <= 3 {
		t.Fatalf("short-path bias: decoded %d-choice path %v from a 400s observation span",
			len(hyp.Decisions), hyp.Decisions)
	}
	// The first two choices are pinned non-default by the early type-2s.
	if hyp.Decisions[0] || hyp.Decisions[1] {
		t.Errorf("early non-defaults lost: %v", hyp.Decisions)
	}
	if hyp.Matched != 4 {
		t.Errorf("matched %d of 4 hard observations", hyp.Matched)
	}
}

func TestDecodeTopKRankedAndMarginNonNegative(t *testing.T) {
	g := script.Bandersnatch()
	tab, err := PathTableFor(g, script.BandersnatchMaxChoices)
	if err != nil {
		t.Fatal(err)
	}
	recs := []ClassifiedRecord{
		classifiedAt(ClassOther, 0.2),
		classifiedAt(ClassType1, 48),
		classifiedAt(ClassType1, 85),
		classifiedAt(ClassType1, 133),
	}
	hyps, err := tab.Decode(recs, anchorEpoch, DecodeParams{TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(hyps) != 5 {
		t.Fatalf("TopK=5 returned %d hypotheses", len(hyps))
	}
	for i := 1; i < len(hyps); i++ {
		if hyps[i].Score > hyps[i-1].Score+1e-9 {
			t.Errorf("hypotheses not ranked: #%d %.4f > #%d %.4f",
				i+1, hyps[i].Score, i, hyps[i-1].Score)
		}
	}
	// Three timed type-1s and no type-2 pin the all-defaults walk.
	for i, d := range hyps[0].Decisions {
		if !d {
			t.Errorf("choice %d decoded non-default", i)
		}
	}
}

func TestSoftClassifyNearBand(t *testing.T) {
	c := &IntervalBand{T1Lo: 2317, T1Hi: 2367, T2Lo: 3102, T2Hi: 3150}
	cls, conf := c.SoftClassify(2305) // 12 below the type-1 band
	if cls != ClassType1 || conf <= 0 {
		t.Errorf("SoftClassify(2305) = %v/%.2f, want weak type-1", cls, conf)
	}
	cls2, conf2 := c.SoftClassify(3100) // 2 below the type-2 band
	if cls2 != ClassType2 || conf2 <= conf {
		t.Errorf("SoftClassify(3100) = %v/%.2f, want stronger type-2 than %.2f", cls2, conf2, conf)
	}
	if _, far := c.SoftClassify(500); far != 0 {
		t.Errorf("SoftClassify(500) = %.2f, want 0 (no band near)", far)
	}
	if _, pad := c.SoftClassify(4141); pad != 0 {
		t.Errorf("SoftClassify(4141) = %.2f, want 0 (padded defense must stay dark)", pad)
	}
}

// TestInferClearsTimestampsOnFlippedChoices pins the stale-timestamp fix:
// when the constrained decode flips a choice against the plain decode,
// the rebuilt choice must not keep the plain decode's timestamps — a
// default choice must have a zero DecidedAt, and timestamps that do
// survive must come from records the winning alignment actually matched.
func TestInferClearsTimestampsOnFlippedChoices(t *testing.T) {
	g := script.Bandersnatch()
	atk := &Attacker{Classifier: stubClassifier{}, Graph: g, MaxChoices: script.BandersnatchMaxChoices}
	mk := func(length int, offset float64) tlsrec.Record {
		return tlsrec.Record{
			Type: tlsrec.ContentApplicationData, Length: length,
			Time: anchorEpoch.Add(time.Duration(offset * float64(time.Second))),
		}
	}
	// Three type-1s at the all-defaults question times plus a stray
	// type-2: the plain decode reads [D, D, A], which stalls mid-graph
	// (invalid), so the engine repairs to [D, D, D] — flipping choice 2
	// while keeping the vector length, the case that used to leak the
	// stale DecidedAt through.
	obs := &Observation{ClientRecords: []tlsrec.Record{
		mk(500, 0.2), // chunk request, anchors the clock
		mk(2500, 48),
		mk(2500, 85),
		mk(2500, 133),
		mk(3500, 136), // stray type-2 (e.g. a drifted telemetry burst)
	}}
	inf, err := atk.Infer(obs)
	if err != nil {
		t.Fatal(err)
	}
	if !inf.UsedConstrainedDecode {
		t.Fatal("expected the constrained decode to repair the plain decode")
	}
	want := []bool{true, true, true}
	if !boolsEqual(inf.Decisions, want) {
		t.Fatalf("decisions = %v, want %v", inf.Decisions, want)
	}
	if len(inf.Choices) != 3 {
		t.Fatalf("choices = %d, want 3", len(inf.Choices))
	}
	for i, c := range inf.Choices {
		if c.TookDefault && !c.DecidedAt.IsZero() {
			t.Errorf("choice %d: default but stale DecidedAt %v survived the flip", i, c.DecidedAt)
		}
		if c.QuestionAt.IsZero() {
			t.Errorf("choice %d: matched type-1 timestamp was dropped", i)
			continue
		}
		// QuestionAt must be one of the observed type-1 record times.
		found := false
		for _, r := range obs.ClientRecords {
			if r.Length == 2500 && r.Time.Equal(c.QuestionAt) {
				found = true
			}
		}
		if !found {
			t.Errorf("choice %d: QuestionAt %v matches no observed type-1 record", i, c.QuestionAt)
		}
	}
}

// TestInferReportsHypothesesWithPlainDecode verifies the calibrated
// hypothesis list and margin are exposed even when the plain decode wins.
func TestInferReportsHypothesesWithPlainDecode(t *testing.T) {
	g := script.Bandersnatch()
	atk := &Attacker{Classifier: stubClassifier{}, Graph: g, MaxChoices: script.BandersnatchMaxChoices}
	obs := &Observation{ClientRecords: []tlsrec.Record{
		{Type: tlsrec.ContentApplicationData, Length: 500, Time: anchorEpoch},
		{Type: tlsrec.ContentApplicationData, Length: 2500, Time: anchorEpoch.Add(48 * time.Second)},
		{Type: tlsrec.ContentApplicationData, Length: 2500, Time: anchorEpoch.Add(85 * time.Second)},
		{Type: tlsrec.ContentApplicationData, Length: 2500, Time: anchorEpoch.Add(133 * time.Second)},
	}}
	inf, err := atk.Infer(obs)
	if err != nil {
		t.Fatal(err)
	}
	if inf.UsedConstrainedDecode {
		t.Fatal("plain decode should have been valid")
	}
	if len(inf.Hypotheses) == 0 {
		t.Fatal("no hypotheses reported alongside the plain decode")
	}
	if inf.DecodeMargin < 0 {
		t.Errorf("negative decode margin %f", inf.DecodeMargin)
	}
	if !boolsEqual(inf.Hypotheses[0].Decisions, inf.Decisions) {
		t.Errorf("top hypothesis %v disagrees with plain decode %v",
			inf.Hypotheses[0].Decisions, inf.Decisions)
	}
}

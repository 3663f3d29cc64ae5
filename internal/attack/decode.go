package attack

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"

	"repro/internal/script"
	"repro/internal/tlsrec"
)

// ClassifiedRecord pairs an observed client record with its classification.
type ClassifiedRecord struct {
	Record     tlsrec.Record
	Class      Class
	Confidence float64
	// SoftClass and SoftConfidence carry a weak secondary hypothesis for
	// records classified ClassOther whose length falls just outside a
	// learned band — the signature of a report whose band drifted between
	// profiling and attack (longer sessions, other browser builds). The
	// decoder treats them as speculative evidence: cheap to ignore,
	// rewarded when a path explains them at the right time. Zero-valued
	// when no band is near or the classifier has no soft refinement.
	SoftClass      Class
	SoftConfidence float64
}

// ClassifyRecords runs the classifier over the client application records.
func ClassifyRecords(recs []tlsrec.Record, c Classifier) []ClassifiedRecord {
	soft, _ := c.(SoftClassifier)
	out := make([]ClassifiedRecord, 0, len(recs))
	for _, r := range recs {
		if r.Type != tlsrec.ContentApplicationData {
			continue
		}
		out = append(out, classifyRecord(r, c, soft))
	}
	return out
}

// classifyRecord classifies a single application record — the unit the
// streaming monitor applies as each record completes, and the body of the
// batch ClassifyRecords loop, so both paths classify identically.
func classifyRecord(r tlsrec.Record, c Classifier, soft SoftClassifier) ClassifiedRecord {
	cls, conf := c.Classify(r.Length)
	cr := ClassifiedRecord{Record: r, Class: cls, Confidence: conf}
	if cls == ClassOther && soft != nil {
		cr.SoftClass, cr.SoftConfidence = soft.SoftClassify(r.Length)
	}
	return cr
}

// InferredChoice is one decoded choice: the i-th question encountered and
// whether the viewer took the default branch.
type InferredChoice struct {
	Index       int
	TookDefault bool
	// QuestionAt is the capture time of the type-1 record.
	QuestionAt time.Time
	// DecidedAt is the capture time of the type-2 record for non-default
	// choices (zero when the default was taken: no second report exists).
	DecidedAt time.Time
}

// DecodeChoices converts a classified record sequence into a choice
// sequence using the paper's rule: each type-1 record marks a question;
// a type-2 record before the next type-1 marks the non-default branch at
// that question, otherwise the default was taken.
func DecodeChoices(recs []ClassifiedRecord) []InferredChoice {
	var out []InferredChoice
	for _, r := range recs {
		switch r.Class {
		case ClassType1:
			out = append(out, InferredChoice{
				Index: len(out), TookDefault: true, QuestionAt: r.Record.Time,
			})
		case ClassType2:
			if len(out) == 0 {
				// A type-2 with no preceding type-1 is a classifier slip;
				// ignore it (the constrained decoder handles these better).
				continue
			}
			out[len(out)-1].TookDefault = false
			out[len(out)-1].DecidedAt = r.Record.Time
		}
	}
	return out
}

// Decisions converts inferred choices to the decision vector.
func Decisions(choices []InferredChoice) []bool {
	out := make([]bool, len(choices))
	for i, c := range choices {
		out[i] = c.TookDefault
	}
	return out
}

// --- Graph-constrained decoding ----------------------------------------------
//
// The plain decoder trusts every classification. The constrained decoder
// instead searches over all root-to-ending paths of the script graph and
// scores each path's expected report sequence against the observed,
// confidence-weighted classifications; the best-scoring path wins. This
// corrects isolated classifier slips (e.g. a telemetry record that fell
// into a band) because wrong report sequences rarely correspond to any
// valid path.
//
// Two properties make the score honest for long sessions:
//
//   - It is time-aware. Every expected event carries the playback-time
//     offset at which its report must appear (segment durations plus the
//     nominal half of each earlier decision window), and every observation
//     carries its capture timestamp. A candidate only earns a match when
//     the classes agree AND the times align within a slack that grows with
//     elapsed playback — so a short path can no longer "explain" a report
//     captured minutes after it would have ended.
//   - It is length-normalized. The raw alignment score is divided by the
//     alignment size, so a long true walk that explains most observations
//     beats a short escape path that merely pays fewer penalties in total.
//
// Unexplained high-confidence observations additionally pay a
// per-event, confidence-scaled penalty: evidence a path cannot account
// for counts against it, which is what broke the pre-fix decoder (it
// charged a flat indel cost, making "see nothing, claim the shortest
// path" the cheapest hypothesis).

// PathHypothesis is one scored candidate.
type PathHypothesis struct {
	// Decisions is the candidate decision vector (true = default).
	Decisions []bool
	// Score is the calibrated per-event alignment score: raw alignment
	// divided by (expected events + hard observations), so hypotheses are
	// comparable across paths and across sessions of different lengths.
	Score float64
	// Matched counts the hard (in-band) observations the path explains.
	Matched int
	// Events is the number of state reports the path is expected to emit.
	Events int

	// match maps expected-event index -> classified-record index for the
	// alignment that produced Score (-1 for unmatched); populated only for
	// hypotheses returned by Decode, and used to rebuild choice timestamps.
	match []int
}

// ExpectedEvent is one state report a path is expected to emit.
type ExpectedEvent struct {
	Class Class
	// Choice is the index of the choice that emits this report.
	Choice int
	// Offset is the nominal playback-time offset (seconds since session
	// start) at which the report is sent: cumulative segment durations
	// plus half of every earlier decision window (the viewer's expected
	// deliberation).
	Offset float64
	// Slack is the alignment tolerance (seconds) at this event: a base
	// allowance plus the deliberation uncertainty accumulated so far plus
	// a fraction of elapsed playback for stall/download drift.
	Slack float64
}

// TablePath is one precomputed root-to-ending walk.
type TablePath struct {
	Decisions []bool
	Segments  []script.SegmentID
	Events    []ExpectedEvent
}

// PathTable is the per-graph decoding table: every complete decision
// vector with its expected report sequence and cumulative playback-time
// offsets. Built once per (graph, maxChoices) and shared across bulk
// inferences — the pre-table decoder re-enumerated 2^depth paths on every
// call. Build tables with NewPathTable or PathTableFor; a table is
// read-only once built, because the aligners rely on its shared-prefix
// counts matching Paths.
type PathTable struct {
	MaxChoices int
	Paths      []TablePath

	// shared[i] counts the leading Events walk i shares with walk i-1.
	// Walks are enumerated depth first, so the counts form an implicit
	// prefix trie: walk i adds one node per event past shared[i]. At
	// Bandersnatch's depth 9 the 196 walks hold 2,640 events but only
	// 390 distinct prefixes, and both aligners score each prefix once.
	shared []int
}

// Timing-model constants for expected-event offsets. The session clock
// runs ahead of pure playback time by download pacing and rebuffering,
// and each choice adds an unknown deliberation in [0, window]; slack
// absorbs both. Deliberations are independent per choice, so their
// accumulated uncertainty grows in quadrature, not linearly — a linear
// model makes late-film slack so wide that a mistimed event one choice
// early can absorb an observation that belongs to the next one.
const (
	baseSlackSec = 10.0
	driftFrac    = 0.05
)

// NewPathTable builds the decoding table for g.
func NewPathTable(g *script.Graph, maxChoices int) (*PathTable, error) {
	t := &PathTable{MaxChoices: maxChoices}
	g.WalkPaths(maxChoices, func(p script.Path) {
		tp := TablePath{Decisions: p.Decisions, Segments: p.Segments}
		var cum, delib, spreadSq float64 // playback s, nominal deliberation s, deliberation variance s²
		di := 0
		for _, id := range p.Segments {
			s, ok := g.Segment(id)
			if !ok {
				continue
			}
			cum += s.Duration.Seconds()
			if s.Choice == nil || di >= len(p.Decisions) {
				continue
			}
			w := s.Choice.Window.Seconds()
			slack := baseSlackSec + math.Sqrt(spreadSq) + driftFrac*cum
			tp.Events = append(tp.Events, ExpectedEvent{
				Class: ClassType1, Choice: di, Offset: cum + delib, Slack: slack,
			})
			if !p.Decisions[di] {
				// The type-2 report lands somewhere inside the decision
				// window; expect it mid-window with widened slack.
				tp.Events = append(tp.Events, ExpectedEvent{
					Class: ClassType2, Choice: di, Offset: cum + delib + w/2, Slack: slack + w/2,
				})
			}
			delib += w / 2
			spreadSq += (w / 2) * (w / 2)
			di++
		}
		t.Paths = append(t.Paths, tp)
	})
	if len(t.Paths) == 0 {
		return nil, fmt.Errorf("attack: graph has no complete paths within %d choices", maxChoices)
	}
	t.shared = make([]int, len(t.Paths))
	for i := 1; i < len(t.Paths); i++ {
		prev, cur := t.Paths[i-1].Events, t.Paths[i].Events
		n := 0
		for n < len(prev) && n < len(cur) && prev[n] == cur[n] {
			n++
		}
		t.shared[i] = n
	}
	return t, nil
}

// pathTableCache memoizes tables process-wide, the same pattern
// media.EncodeCached uses for title encodings: content-keyed (graph
// pointer identity deliberately does not matter — repeated
// script.Bandersnatch() and dataset.Generate calls build fresh but
// identical graphs, and a pointer key would leak one table per build)
// and bounded, emptied wholesale when full (tables are cheap to rebuild
// and workloads cycle very few keys).
var pathTableCache struct {
	sync.Mutex
	m map[string]*PathTable
}

const pathTableCacheLimit = 16

// appendPathTableKey appends the fingerprint of everything the table
// depends on to dst: the start segment, every segment's duration and
// successors, each choice's branches and decision window, and the
// enumeration depth.
func appendPathTableKey(dst []byte, g *script.Graph, maxChoices int) []byte {
	dst = append(dst, g.Title...)
	dst = append(dst, 0)
	dst = append(dst, g.Start...)
	dst = append(dst, 0)
	dst = strconv.AppendInt(dst, int64(maxChoices), 10)
	dst = append(dst, 0)
	for _, s := range g.Segments() {
		dst = append(dst, s.ID...)
		dst = append(dst, 1)
		dst = strconv.AppendInt(dst, int64(s.Duration), 10)
		dst = append(dst, 1)
		dst = append(dst, s.Next...)
		dst = append(dst, 1)
		dst = strconv.AppendBool(dst, s.Ending)
		dst = append(dst, 1)
		if c := s.Choice; c != nil {
			dst = append(dst, c.Default...)
			dst = append(dst, 2)
			dst = append(dst, c.Alternative...)
			dst = append(dst, 2)
			dst = strconv.AppendInt(dst, int64(c.Window), 10)
		}
		dst = append(dst, 0)
	}
	return dst
}

// PathTableFor returns the shared decoding table for (g, maxChoices),
// building it at most once per distinct graph content. The returned
// table is read-only and safe to share across goroutines. Every
// Attacker.Infer calls it, so the key is built in a stack buffer (a
// Bandersnatch key is 884 bytes) and a hit allocates only the graph's
// Segments slice.
func PathTableFor(g *script.Graph, maxChoices int) (*PathTable, error) {
	var buf [2048]byte
	key := appendPathTableKey(buf[:0], g, maxChoices)
	pathTableCache.Lock()
	if t, ok := pathTableCache.m[string(key)]; ok {
		pathTableCache.Unlock()
		return t, nil
	}
	pathTableCache.Unlock()

	t, err := NewPathTable(g, maxChoices)
	if err != nil {
		return nil, err
	}

	pathTableCache.Lock()
	defer pathTableCache.Unlock()
	if prior, ok := pathTableCache.m[string(key)]; ok {
		return prior, nil // a racing builder won; keep one canonical copy
	}
	if pathTableCache.m == nil || len(pathTableCache.m) >= pathTableCacheLimit {
		pathTableCache.m = make(map[string]*PathTable)
	}
	pathTableCache.m[string(key)] = t
	return t, nil
}

// DecodeParams tune Decode's output.
type DecodeParams struct {
	// TopK bounds the ranked hypothesis list Decode returns (default 3).
	TopK int
}

// topK resolves TopK's default.
func (p DecodeParams) topK() int {
	if p.TopK <= 0 {
		return 3
	}
	return p.TopK
}

// The alignment score's penalties.
const (
	// expectedGapPenalty is charged per expected report that no
	// observation accounts for — kept mild, because band drift and
	// classifier slips legitimately hide true events.
	expectedGapPenalty = 0.4
	// observedGapPenalty is charged per unexplained hard observation,
	// scaled by its confidence: a path that cannot account for an in-band
	// report it supposedly produced is probably wrong.
	observedGapPenalty = 1.5
	// mismatchPenalty is charged when an expected report aligns against
	// an observation of the other class.
	mismatchPenalty = 1.5
	// softSkipPenalty is charged per unexplained soft observation —
	// nearly free, soft evidence is speculative.
	softSkipPenalty = 0.02
)

// observedEvent is a type-1 or type-2 observation with confidence and a
// capture-time offset from the session anchor.
type observedEvent struct {
	class  Class
	conf   float64
	hard   bool
	recIdx int     // index into the classified record slice
	offset float64 // seconds since anchor
	timed  bool    // false when the record carried no timestamp
}

// observedEvents extracts hard (in-band) and soft (near-band) report
// observations. anchor approximates session start; when zero, the first
// classified record's time is used (the first chunk request fires ~200ms
// after the handshake, well inside every slack).
func observedEvents(recs []ClassifiedRecord, anchor time.Time) []observedEvent {
	if anchor.IsZero() {
		for _, r := range recs {
			if !r.Record.Time.IsZero() {
				anchor = r.Record.Time
				break
			}
		}
	}
	var out []observedEvent
	for i, r := range recs {
		if ev, ok := observedEventFrom(r, i, anchor); ok {
			out = append(out, ev)
		}
	}
	return out
}

// observedEventFrom builds the observation for one classified record —
// hard for in-band reports, soft for near-band refinements — or reports
// ok=false for records that carry no report evidence. The streaming
// monitor uses it to extend a flow's observation sequence one record at a
// time, with exactly the batch extraction's semantics.
func observedEventFrom(r ClassifiedRecord, idx int, anchor time.Time) (observedEvent, bool) {
	ev := observedEvent{recIdx: idx}
	switch {
	case r.Class == ClassType1 || r.Class == ClassType2:
		ev.class, ev.conf, ev.hard = r.Class, r.Confidence, true
	case r.SoftConfidence > 0:
		ev.class, ev.conf = r.SoftClass, r.SoftConfidence
	default:
		return observedEvent{}, false
	}
	if !r.Record.Time.IsZero() && !anchor.IsZero() {
		ev.offset = r.Record.Time.Sub(anchor).Seconds()
		ev.timed = true
	}
	return ev, true
}

// Decode scores every table path against the classified records and
// returns the top-k hypotheses, best first. anchor is the capture time of
// session start (the first client record); pass the zero time to fall
// back to the first classified record. The returned scores are
// normalized per event, so the margin between ranks is a calibrated
// decode confidence. Walks are scored in table order, each computing
// only the alignment rows past the event prefix it shares with the walk
// before, so every distinct prefix is aligned once.
func (t *PathTable) Decode(recs []ClassifiedRecord, anchor time.Time, prm DecodeParams) ([]PathHypothesis, error) {
	if len(t.Paths) == 0 {
		return nil, fmt.Errorf("attack: empty path table")
	}
	obs := observedEvents(recs, anchor)
	nHard := 0
	for _, o := range obs {
		if o.hard {
			nHard++
		}
	}
	// One NW row per event depth, sized for the longest expected sequence.
	maxM := 0
	for i := range t.Paths {
		if m := len(t.Paths[i].Events); m > maxM {
			maxM = m
		}
	}
	a := newAligner(maxM, obs)

	// Rank best-first on the score nudged by a tiny Occam prior (1e-7 per
	// expected event): when evidence does not discriminate — e.g. fully
	// padded traffic, where every path ties up to float rounding — the
	// fewest-events path wins, and exact ties keep enumeration order
	// (defaults-first, earliest ending first). That reproduces the blind
	// all-defaults prior instead of letting 1-ulp noise pick a walk. The
	// nudge is orders of magnitude below any real decode margin and is
	// excluded from the reported Score.
	k := min(prm.topK(), len(t.Paths))
	top := make([]rankedWalk, 0, k)
	for i := range t.Paths {
		p := &t.Paths[i]
		raw := a.extend(p.Events, t.shared[i], obs)
		denom := float64(len(p.Events) + nHard)
		if denom < 1 {
			denom = 1
		}
		w := rankedWalk{walk: i, score: raw / denom}
		w.rank = w.score - 1e-7*float64(len(p.Events))
		// Stable top-k insertion: the walk goes below every kept walk
		// that ranks at least as high, so exact ties keep table order.
		at := len(top)
		for at > 0 && top[at-1].rank < w.rank {
			at--
		}
		if at == k {
			continue
		}
		if len(top) < k {
			top = append(top, rankedWalk{})
		}
		copy(top[at+1:], top[at:])
		top[at] = w
	}
	out := make([]PathHypothesis, 0, k)
	for _, w := range top {
		p := &t.Paths[w.walk]
		h := PathHypothesis{
			// Hand out a copy: the table's vectors are shared across every
			// inference in the process and must never alias caller state.
			Decisions: append([]bool(nil), p.Decisions...),
			Score:     w.score,
			Events:    len(p.Events),
		}
		h.match, h.Matched = a.traceback(p.Events, obs)
		out = append(out, h)
	}
	return out, nil
}

// rankedWalk is one table walk's normalized score and Occam-nudged rank.
type rankedWalk struct {
	walk        int
	score, rank float64
}

// ConstrainedDecode scores the graph's complete decision vectors against
// the classified records and returns the best hypothesis. It is the
// single-shot form of PathTable.Decode and shares the memoized table.
func ConstrainedDecode(g *script.Graph, recs []ClassifiedRecord, maxChoices int) (PathHypothesis, error) {
	t, err := PathTableFor(g, maxChoices)
	if err != nil {
		return PathHypothesis{Score: math.Inf(-1)}, err
	}
	hyps, err := t.Decode(recs, time.Time{}, DecodeParams{TopK: 1})
	if err != nil {
		return PathHypothesis{Score: math.Inf(-1)}, err
	}
	return hyps[0], nil
}

// --- Needleman–Wunsch alignment ----------------------------------------------

// aligner holds one Decode's scoring state: the score matrix, one row per
// expected-event depth, and the move matrix the ranked hypotheses'
// tracebacks fill.
type aligner struct {
	grid  []float64 // (maxM+1)*(n+1) score matrix
	moves []byte    // (maxM+1)*(n+1) move matrix, reused per traceback
}

const (
	moveDiag = byte(iota + 1)
	moveUp   // gap in observed (expected event unobserved)
	moveLeft // gap in expected (observation unexplained)
)

// newAligner sizes the matrices for walks of up to maxM events against
// obs and fills row 0, the alignment of no expected event, which every
// walk shares.
func newAligner(maxM int, obs []observedEvent) *aligner {
	full := (maxM + 1) * (len(obs) + 1)
	a := &aligner{
		grid:  make([]float64, full),
		moves: make([]byte, full),
	}
	for j := 1; j <= len(obs); j++ {
		a.grid[j] = a.grid[j-1] + skipObserved(obs[j-1])
	}
	return a
}

// cell scores aligning expected event e against observation o.
func alignScore(e ExpectedEvent, o observedEvent) float64 {
	if e.Class != o.class {
		// Soft observations mismatch mildly: they were never confidently
		// claimed to be reports at all.
		return -mismatchPenalty * o.conf
	}
	return o.conf * timeFactor(e, o)
}

// timeFactor scales a class match by temporal plausibility with a
// Gaussian decay in the deviation measured in slacks: a report near its
// expected time keeps its full confidence, one a whole slack out keeps
// ~61%, and one several slacks out earns effectively nothing — at which
// point the aligner's gap options take over.
func timeFactor(e ExpectedEvent, o observedEvent) float64 {
	if !o.timed {
		return 1
	}
	dev := math.Abs(o.offset-e.Offset) / e.Slack
	return math.Exp(-0.5 * dev * dev)
}

// skipObserved is the cost of leaving observation o unexplained.
func skipObserved(o observedEvent) float64 {
	if o.hard {
		return -observedGapPenalty * o.conf
	}
	return -softSkipPenalty
}

// extend computes rows from+1..m of the score matrix for one walk and
// returns its raw alignment score, S[m][n]. Rows 0..from must already
// hold the alignment of the walk's first from events: the walk scored
// before it shares them, and Decode scores walks in table order.
func (a *aligner) extend(expected []ExpectedEvent, from int, obs []observedEvent) float64 {
	n := len(obs)
	for i := from + 1; i <= len(expected); i++ {
		prev, cur := a.grid[(i-1)*(n+1):i*(n+1)], a.grid[i*(n+1):(i+1)*(n+1)]
		cur[0] = prev[0] - expectedGapPenalty
		for j := 1; j <= n; j++ {
			best := prev[j-1] + alignScore(expected[i-1], obs[j-1])
			if up := prev[j] - expectedGapPenalty; up > best {
				best = up
			}
			if left := cur[j-1] + skipObserved(obs[j-1]); left > best {
				best = left
			}
			cur[j] = best
		}
	}
	return a.grid[len(expected)*(n+1)+n]
}

// --- Incremental prefix alignment --------------------------------------------
//
// The streaming monitor cannot afford to re-run the full alignment on
// every feed: it extends the DP column by column instead. The aligner
// keeps one Needleman–Wunsch cell per distinct expected-event prefix —
// S[d][j], the score of aligning a walk's first d expected events against
// all j observations so far — which every walk through that prefix
// shares, and each new observation advances every cell by one step, in
// table order. The recurrence, its operand order and therefore the
// floating-point results are identical to the batch aligner's, so a
// walk's deepest cell after the last observation equals the batch raw
// score exactly; the running ranking in between scores the best *prefix*
// of each walk, which is what a partial session can honestly be compared
// against.

// prefixAligner is the incremental per-flow decoding state.
type prefixAligner struct {
	table *PathTable
	root  float64   // S[0][j]: no expected event, every observation skipped
	cells []float64 // S[d][j], one per distinct event prefix, in table order
	// Per-depth stacks along the walk being visited: a cell's value
	// before and after the current observation, and in ranking the best
	// normalized cell over depths 0..d.
	before, after, upTo []float64
	scores              []float64 // scratch: per-walk prefix scores for one ranking
	nHard               int
}

// newPrefixAligner initializes the zero-observation cells (every
// expected event unmatched).
func newPrefixAligner(t *PathTable) *prefixAligner {
	pa := &prefixAligner{table: t}
	nodes, maxM := 0, 0
	for i := range t.Paths {
		m := len(t.Paths[i].Events)
		nodes += m - t.shared[i]
		maxM = max(maxM, m)
	}
	buf := make([]float64, nodes+3*(maxM+1))
	pa.cells, buf = buf[:nodes], buf[nodes:]
	pa.before, pa.after, pa.upTo = buf[:maxM+1], buf[maxM+1:2*(maxM+1)], buf[2*(maxM+1):]
	k := 0
	for i := range t.Paths {
		for d := t.shared[i] + 1; d <= len(t.Paths[i].Events); d++ {
			pa.after[d] = pa.after[d-1] - expectedGapPenalty
			pa.cells[k] = pa.after[d]
			k++
		}
	}
	return pa
}

// observe advances every prefix cell by one new observation. Cells are
// visited in table order, so a cell's parent — the prefix one event
// shorter — has always just been advanced, and the stacks hold its old
// and new values.
func (pa *prefixAligner) observe(o observedEvent) {
	if o.hard {
		pa.nHard++
	}
	skip := skipObserved(o)
	before, after := pa.before, pa.after
	before[0] = pa.root
	pa.root += skip
	after[0] = pa.root
	k := 0
	for i := range pa.table.Paths {
		events := pa.table.Paths[i].Events
		for d := pa.table.shared[i] + 1; d <= len(events); d++ {
			old := pa.cells[k] // S[d][j-1]
			best := before[d-1] + alignScore(events[d-1], o)
			if up := after[d-1] - expectedGapPenalty; up > best {
				best = up
			}
			if left := old + skip; left > best {
				best = left
			}
			pa.cells[k] = best
			before[d], after[d] = old, best
			k++
		}
	}
}

// prefixScores sets each walk's running score: the best
// per-event-normalized alignment over every prefix of its expected
// events, so a long walk is judged on the part of the film that has
// plausibly played out rather than charged for reports that are not yet
// due. The running maximum per depth is taken in depth order, as over
// one walk's own column.
func (pa *prefixAligner) prefixScores(scores []float64) {
	upTo := pa.upTo
	upTo[0] = math.Inf(-1)
	if s := pa.root / pa.denom(0); s > upTo[0] {
		upTo[0] = s
	}
	k := 0
	for i := range pa.table.Paths {
		events := pa.table.Paths[i].Events
		for d := pa.table.shared[i] + 1; d <= len(events); d++ {
			upTo[d] = upTo[d-1]
			if s := pa.cells[k] / pa.denom(d); s > upTo[d] {
				upTo[d] = s
			}
			k++
		}
		scores[i] = upTo[len(events)]
	}
}

// denom normalizes a depth-d cell per event: the alignment size over d
// expected events and every hard observation so far.
func (pa *prefixAligner) denom(d int) float64 {
	return max(float64(d+pa.nHard), 1)
}

// ranking returns the running best path index and the margin to the best
// path that *disagrees within the first k decisions* — the choices the
// session has evidenced so far. Competing completions of the same
// decision prefix are indistinguishable mid-session by construction, so
// the margin measures confidence in what has actually been decided; it is
// 0 while nothing discriminates (k = 0, or a single path). Candidates are
// ranked with the batch decoder's Occam nudge (fewest expected events
// wins a tie, enumeration order breaks exact ties), so under
// non-discriminating evidence the live best hypothesis agrees with what
// Decode will finalize.
func (pa *prefixAligner) ranking(k int) (best int, margin float64) {
	paths := pa.table.Paths
	if cap(pa.scores) < len(paths) {
		pa.scores = make([]float64, len(paths))
	}
	scores := pa.scores[:len(paths)]
	pa.prefixScores(scores)
	rank := func(pi int) float64 {
		return scores[pi] - 1e-7*float64(len(paths[pi].Events))
	}
	bestRank := math.Inf(-1)
	for pi := range paths {
		if r := rank(pi); r > bestRank {
			bestRank, best = r, pi
		}
	}
	bestDec := paths[best].Decisions
	rival, found := math.Inf(-1), false
	for pi := range paths {
		if !prefixEqual(paths[pi].Decisions, bestDec, k) && scores[pi] > rival {
			rival, found = scores[pi], true
		}
	}
	if !found {
		return best, 0
	}
	// The margin, like the batch DecodeMargin, is the raw score gap.
	if m := scores[best] - rival; m > 0 {
		return best, m
	}
	return best, 0
}

// prefixEqual reports whether two decision vectors agree on their first k
// entries (shorter vectors compare over their available length; a length
// difference inside the prefix is a disagreement).
func prefixEqual(a, b []bool, k int) bool {
	for i := 0; i < k; i++ {
		if i >= len(a) || i >= len(b) {
			return len(a) == len(b)
		}
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// traceback re-runs the alignment with a full move matrix and returns the
// expected-event -> record-index match table plus the hard-match count.
// It overwrites the score matrix's rows, so Decode calls it only once
// every walk is scored.
func (a *aligner) traceback(expected []ExpectedEvent, obs []observedEvent) ([]int, int) {
	m, n := len(expected), len(obs)
	need := (m + 1) * (n + 1)
	if cap(a.moves) < need {
		a.moves = make([]byte, need)
		a.grid = make([]float64, need)
	}
	moves, row := a.moves[:need], a.grid[:need]
	at := func(i, j int) int { return i*(n+1) + j }

	for j := 1; j <= n; j++ {
		row[at(0, j)] = row[at(0, j-1)] + skipObserved(obs[j-1])
		moves[at(0, j)] = moveLeft
	}
	for i := 1; i <= m; i++ {
		row[at(i, 0)] = row[at(i-1, 0)] - expectedGapPenalty
		moves[at(i, 0)] = moveUp
		for j := 1; j <= n; j++ {
			best := row[at(i-1, j-1)] + alignScore(expected[i-1], obs[j-1])
			move := moveDiag
			if up := row[at(i-1, j)] - expectedGapPenalty; up > best {
				best, move = up, moveUp
			}
			if left := row[at(i, j-1)] + skipObserved(obs[j-1]); left > best {
				best, move = left, moveLeft
			}
			row[at(i, j)] = best
			moves[at(i, j)] = move
		}
	}

	match := make([]int, m)
	for i := range match {
		match[i] = -1
	}
	matched := 0
	for i, j := m, n; i > 0 || j > 0; {
		switch moves[at(i, j)] {
		case moveDiag:
			if expected[i-1].Class == obs[j-1].class {
				match[i-1] = obs[j-1].recIdx
				if obs[j-1].hard {
					matched++
				}
			}
			i, j = i-1, j-1
		case moveUp:
			i--
		default:
			j--
		}
	}
	return match, matched
}

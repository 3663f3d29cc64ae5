package attack

import (
	"fmt"
	"time"

	"repro/internal/script"
	"repro/internal/session"
)

// TrainingSetFromTraces converts labeled session traces into classifier
// training examples: every client application write contributes its
// records with the ground-truth label. This mirrors the paper's setup,
// where the attacker first observes instrumented sessions under a known
// condition to learn that condition's bands.
//
// QUIC traces carry no client records — record boundaries are sealed
// inside 1-RTT packets — so QUIC examples are wire bursts: labeled
// writes whose datagrams arrive within the segmentation gap of each
// other merge into one example whose length is the summed datagram
// size, exactly what the monitor's BurstSegmenter will recover from the
// capture. A report posted back-to-back with a chunk request trains as
// the composite the eavesdropper actually sees.
func TrainingSetFromTraces(traces []*session.Trace) []Example {
	var out []Example
	for _, tr := range traces {
		quic := false
		for _, w := range tr.ClientWrites {
			if len(w.Datagrams) > 0 {
				quic = true
				break
			}
		}
		if quic {
			out = append(out, quicBurstExamples(tr)...)
			continue
		}
		for _, w := range tr.ClientWrites {
			cls := classOfLabel(w.Label)
			if w.Label == session.LabelHandshake {
				continue // not application data
			}
			for _, r := range w.Records {
				out = append(out, Example{Length: r.Length, Class: cls})
			}
		}
	}
	return out
}

func classOfLabel(l session.WriteLabel) Class {
	switch l {
	case session.LabelType1:
		return ClassType1
	case session.LabelType2:
		return ClassType2
	default:
		return ClassOther
	}
}

// quicBurstExamples groups a QUIC trace's labeled client writes into the
// bursts the wire shows, using the same gap rule as BurstSegmenter: a
// write whose first datagram lands within DefaultBurstGap of the
// previous write's last datagram joins the open burst. A burst's class
// is the strongest report it contains (type-2 over type-1 over other) —
// reports never co-occur within one gap, but a report and the chunk
// request it triggers routinely do.
//
// Report bursts that a telemetry beacon happened to land on are
// discarded: the profiler knows its own labels, and one collision would
// widen a report band by an entire telemetry payload, overlapping the
// other class and making the condition untrainable. At attack time the
// same collision merely pushes that one burst out of band, costing at
// most the affected choice.
func quicBurstExamples(tr *session.Trace) []Example {
	var out []Example
	var open, telemetry bool
	var bytes int
	var cls Class
	var last time.Time
	flush := func() {
		if open && !(telemetry && cls != ClassOther) {
			out = append(out, Example{Length: bytes, Class: cls})
		}
		open, telemetry, bytes, cls = false, false, 0, ClassOther
	}
	for _, w := range tr.ClientWrites {
		// The handshake travels in long-header datagrams, which the
		// monitor's segmenter never feeds into bursts.
		if w.Label == session.LabelHandshake || len(w.Datagrams) == 0 {
			continue
		}
		if open && w.Datagrams[0].Time.Sub(last) > DefaultBurstGap {
			flush()
		}
		open = true
		telemetry = telemetry || w.Label == session.LabelTelemetry
		for _, d := range w.Datagrams {
			bytes += d.Size
		}
		if c := classOfLabel(w.Label); c > cls {
			cls = c
		}
		if end := w.Datagrams[len(w.Datagrams)-1].Time; end.After(last) {
			last = end
		}
	}
	flush()
	return out
}

// HasBothClasses reports whether the traces contain at least one type-1
// and one type-2 training example — the attacker's stopping condition
// while profiling (a viewer who took only defaults never sent a type-2).
// It scans the labeled writes directly instead of materializing a
// training set, as it runs once per profiling session.
func HasBothClasses(traces []*session.Trace) bool {
	var t1, t2 bool
	for _, tr := range traces {
		for _, w := range tr.ClientWrites {
			switch w.Label {
			case session.LabelType1:
				t1 = t1 || len(w.Records) > 0 || len(w.Datagrams) > 0
			case session.LabelType2:
				t2 = t2 || len(w.Records) > 0 || len(w.Datagrams) > 0
			}
			if t1 && t2 {
				return true
			}
		}
	}
	return false
}

// Attacker bundles a trained classifier with the title's script graph.
type Attacker struct {
	Classifier Classifier
	// Graph, when non-nil, enables graph-constrained decoding.
	Graph *script.Graph
	// MaxChoices bounds path enumeration depth for constrained decoding.
	MaxChoices int
	// Decode bounds the constrained decoder's ranked hypothesis list; the
	// zero value keeps the top 3.
	Decode DecodeParams
}

// NewAttacker trains a classifier from labeled traces using the paper's
// interval-band rule and returns an attacker for the given graph.
func NewAttacker(training []*session.Trace, g *script.Graph, maxChoices int) (*Attacker, error) {
	return NewAttackerWithTrainer(&IntervalBandTrainer{}, training, g, maxChoices)
}

// NewAttackerWithTrainer is NewAttacker with an explicit classifier
// trainer — the hook for padding-aware profiling (an IntervalBandTrainer
// carrying the policy's PadEnvelope) or for the ablation classifiers.
func NewAttackerWithTrainer(t Trainer, training []*session.Trace, g *script.Graph, maxChoices int) (*Attacker, error) {
	clf, err := t.Train(TrainingSetFromTraces(training))
	if err != nil {
		return nil, err
	}
	return &Attacker{Classifier: clf, Graph: g, MaxChoices: maxChoices}, nil
}

// Inference is the attack's output for one capture.
type Inference struct {
	// Choices is the decoded choice sequence.
	Choices []InferredChoice
	// Decisions is the boolean form (true = default branch).
	Decisions []bool
	// Path is the reconstructed walk when a graph was supplied.
	Path script.Path
	// Classified retains the per-record classifications for reporting.
	Classified []ClassifiedRecord
	// UsedConstrainedDecode reports whether the graph search replaced the
	// plain decode.
	UsedConstrainedDecode bool
	// Hypotheses is the constrained decoder's ranked top-k candidate list
	// (present whenever a graph was supplied, even when the plain decode
	// was kept). Scores are per-event normalized and comparable across
	// sessions.
	Hypotheses []PathHypothesis
	// DecodeMargin is the score gap between the best and second-best
	// hypotheses — a calibrated confidence in the decode (0 when fewer
	// than two candidate paths exist).
	DecodeMargin float64
}

// Infer runs the attack on an extracted observation.
func (a *Attacker) Infer(obs *Observation) (*Inference, error) {
	if a.Classifier == nil {
		return nil, fmt.Errorf("attack: attacker has no classifier")
	}
	classified := ClassifyRecords(obs.ClientRecords, a.Classifier)
	choices := DecodeChoices(classified)
	inf := &Inference{
		Choices:    choices,
		Decisions:  Decisions(choices),
		Classified: classified,
	}
	if a.Graph == nil {
		return inf, nil
	}
	// Score every candidate path against the observation using the
	// memoized per-graph table; the ranked list and margin are reported
	// even when the plain decode wins.
	table, err := a.pathTable()
	if err != nil {
		return inf, err
	}
	var anchor time.Time
	if len(obs.ClientRecords) > 0 {
		anchor = obs.ClientRecords[0].Time
	}
	hyps, err := table.Decode(classified, anchor, a.Decode)
	if err != nil {
		return inf, err
	}
	inf.Hypotheses = hyps
	if len(hyps) > 1 {
		if m := hyps[0].Score - hyps[1].Score; m > 0 {
			inf.DecodeMargin = m
		}
	}
	// Prefer the plain decode when it already corresponds to a valid
	// complete path; otherwise the best hypothesis repairs it.
	if pathValid(a.Graph, inf.Decisions) {
		p, err := a.Graph.Walk(inf.Decisions)
		if err == nil {
			inf.Path = p
			return inf, nil
		}
	}
	best := hyps[0]
	inf.Decisions = best.Decisions
	inf.UsedConstrainedDecode = true
	p, err := a.Graph.Walk(best.Decisions)
	if err != nil {
		return inf, err
	}
	inf.Path = p
	inf.Choices = rebuildChoices(table, best, classified)
	return inf, nil
}

// pathTable is the memoized decoding table for the attacker's graph,
// enumerated to MaxChoices decisions (16 when unset).
func (a *Attacker) pathTable() (*PathTable, error) {
	maxChoices := a.MaxChoices
	if maxChoices <= 0 {
		maxChoices = 16
	}
	return PathTableFor(a.Graph, maxChoices)
}

// rebuildChoices reconstructs the choice sequence for a constrained
// decode from the winning alignment: each choice's timestamps come from
// the observed records its expected events matched, and choices whose
// events went unobserved — including any the decoder flipped against the
// plain decode — carry zero timestamps rather than stale ones.
func rebuildChoices(table *PathTable, best PathHypothesis, recs []ClassifiedRecord) []InferredChoice {
	out := make([]InferredChoice, len(best.Decisions))
	for i, d := range best.Decisions {
		out[i] = InferredChoice{Index: i, TookDefault: d}
	}
	// Locate the winning path's expected events to pair with the match
	// table (Decode copied the decision vector, so compare by value).
	var events []ExpectedEvent
	for i := range table.Paths {
		if boolsEqual(table.Paths[i].Decisions, best.Decisions) {
			events = table.Paths[i].Events
			break
		}
	}
	if len(events) != len(best.match) {
		return out
	}
	for i, e := range events {
		ri := best.match[i]
		if ri < 0 || ri >= len(recs) || e.Choice >= len(out) {
			continue
		}
		t := recs[ri].Record.Time
		switch e.Class {
		case ClassType1:
			out[e.Choice].QuestionAt = t
		case ClassType2:
			if !out[e.Choice].TookDefault {
				out[e.Choice].DecidedAt = t
			}
		}
	}
	return out
}

func boolsEqual(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// pathValid reports whether decisions walk g to an ending while consuming
// exactly the full vector.
func pathValid(g *script.Graph, decisions []bool) bool {
	p, err := g.Walk(decisions)
	if err != nil {
		return false
	}
	if len(p.Decisions) != len(decisions) {
		return false
	}
	last, ok := g.Segment(p.Segments[len(p.Segments)-1])
	return ok && last.Ending
}

// InferPcap runs the one-shot attack on capture bytes. It is a thin
// wrapper over the streaming engine — a Monitor fed the whole capture at
// once and closed — and returns exactly what the same capture yields when
// fed in chunks of any size.
func (a *Attacker) InferPcap(pcapBytes []byte) (*Inference, error) {
	m := NewMonitor(a, MonitorOptions{})
	if err := m.Feed(pcapBytes); err != nil {
		return nil, err
	}
	return m.Close()
}

// ScoreDecisions compares inferred against ground-truth decisions and
// returns (correct, total). Extra or missing trailing choices count as
// wrong, so slips are penalized rather than silently truncated.
func ScoreDecisions(inferred, truth []bool) (correct, total int) {
	total = len(truth)
	if len(inferred) > total {
		total = len(inferred)
	}
	for i := 0; i < len(truth) && i < len(inferred); i++ {
		if truth[i] == inferred[i] {
			correct++
		}
	}
	return correct, total
}

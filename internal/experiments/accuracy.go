package experiments

import (
	"fmt"
	"strings"

	"repro/internal/attack"
	"repro/internal/parallel"
	"repro/internal/profiles"
	"repro/internal/script"
	"repro/internal/session"
	"repro/internal/stats"
	"repro/internal/viewer"
	"repro/internal/wire"
)

// AccuracyResult reproduces the §V headline: per-session choice-recovery
// accuracy over sessions viewed by different people under different
// operational and network conditions; the paper reports 96% in the worst
// case.
type AccuracyResult struct {
	Sessions  []SessionAccuracy
	Mean      float64
	WorstCase float64
	// MeanMargin is the mean decode margin (score gap between the
	// decoder's best and second-best path hypotheses) across sessions — a
	// calibrated confidence the headline number alone does not expose.
	MeanMargin float64
	Report     string
}

// SessionAccuracy scores one session.
type SessionAccuracy struct {
	Condition profiles.Condition
	ViewerID  string
	Correct   int
	Total     int
	// Margin is the session's decode margin.
	Margin float64
}

// Accuracy runs n test sessions (the paper used 10), each under a
// different condition drawn from the Table I grid, trains the paper's
// interval-band classifier per condition on trainPerCond held-out
// sessions, and scores per-choice recovery.
//
// Each (train, test, score) unit is independent — its randomness comes
// from per-index streams off the root seed — so the units fan out across
// the worker pool and the result is identical at any worker count.
func Accuracy(n, trainPerCond int, seed uint64) (*AccuracyResult, error) {
	if n <= 0 {
		n = 10
	}
	if trainPerCond <= 0 {
		trainPerCond = 2
	}
	g := script.Bandersnatch()
	enc := sharedEncoding(g, seed)
	grid := profiles.Grid()
	root := wire.NewRNG(seed)
	pop := viewer.SamplePopulation(n, root.Stream(1))

	sessions, err := parallel.MapN(0, n, func(i int) (SessionAccuracy, error) {
		cond := grid[(i*7)%len(grid)] // stride the grid for variety
		// Train per condition on sessions disjoint from the test session,
		// collecting more until both report types have been observed (a
		// viewer who took only defaults never sent a type-2, and the
		// attacker keeps profiling until both bands are known).
		training, err := profileSessions(g, enc, cond, trainPerCond, trainPerCond+8,
			func(t int) (viewer.Viewer, uint64) {
				return viewer.SamplePopulation(1, root.Stream(uint64(1000+i*100+t)))[0],
					seed + uint64(9000+i*100+t)
			}, nil)
		if err != nil {
			return SessionAccuracy{}, err
		}
		atk, err := attack.NewAttacker(training, g, script.BandersnatchMaxChoices)
		if err != nil {
			return SessionAccuracy{}, fmt.Errorf("training under %s: %w", cond, err)
		}

		tr, err := runOne(g, enc, pop[i], cond, seed+uint64(i)*31, nil)
		if err != nil {
			return SessionAccuracy{}, err
		}
		inf, err := atk.Infer(observationOf(tr))
		if err != nil {
			return SessionAccuracy{}, err
		}
		correct, total := attack.ScoreDecisions(inf.Decisions, tr.GroundTruthDecisions())
		return SessionAccuracy{
			Condition: cond, ViewerID: pop[i].ID, Correct: correct, Total: total,
			Margin: inf.DecodeMargin,
		}, nil
	})
	if err != nil {
		return nil, err
	}

	res := &AccuracyResult{Sessions: sessions}
	var accs, margins []float64
	for _, s := range sessions {
		if s.Total > 0 {
			accs = append(accs, float64(s.Correct)/float64(s.Total))
		}
		margins = append(margins, s.Margin)
	}
	res.Mean = stats.Mean(accs)
	res.WorstCase = stats.Min(accs)
	res.MeanMargin = stats.Mean(margins)
	res.Report = renderAccuracy(res)
	return res, nil
}

func renderAccuracy(res *AccuracyResult) string {
	var b strings.Builder
	b.WriteString("Headline result (§V): choice recovery from encrypted traffic\n")
	rows := [][]string{}
	for i, s := range res.Sessions {
		rows = append(rows, []string{
			fmt.Sprintf("%d", i+1), s.ViewerID, s.Condition.String(),
			fmt.Sprintf("%d/%d", s.Correct, s.Total),
			fmt.Sprintf("%.0f%%", 100*float64(s.Correct)/float64(max(s.Total, 1))),
			fmt.Sprintf("%.3f", s.Margin),
		})
	}
	b.WriteString(stats.RenderTable(
		[]string{"session", "viewer", "condition", "choices", "accuracy", "margin"}, rows))
	fmt.Fprintf(&b, "\nmean accuracy:  %.1f%%\n", 100*res.Mean)
	fmt.Fprintf(&b, "worst case:     %.1f%%   (paper: 96%% worst case)\n", 100*res.WorstCase)
	fmt.Fprintf(&b, "decode margin:  %.3f mean score gap to the runner-up hypothesis\n", res.MeanMargin)
	return b.String()
}

// --- Ablation: classifier comparison ------------------------------------------

// ClassifierAblationResult compares the paper's interval-band rule with
// nearest-centroid and kNN on the same per-record classification task.
type ClassifierAblationResult struct {
	PerClassifier map[string]float64 // record-level accuracy
	Report        string
}

// ClassifierAblation trains each classifier under one condition and
// scores per-record classification on held-out sessions. The held-out
// sessions are simulated once, in parallel, and shared by every
// classifier (they score the same task), and classifiers are evaluated in
// a fixed order, so the ablation is deterministic.
func ClassifierAblation(seed uint64) (*ClassifierAblationResult, error) {
	g := script.Bandersnatch()
	enc := sharedEncoding(g, seed)
	cond := profiles.Fig2Ubuntu
	root := wire.NewRNG(seed)

	training, err := profileSessions(g, enc, cond, 3, 10,
		func(t int) (viewer.Viewer, uint64) {
			return viewer.SamplePopulation(1, root.Stream(uint64(t+1)))[0],
				seed + uint64(t)*131
		}, nil)
	if err != nil {
		return nil, err
	}
	examples := attack.TrainingSetFromTraces(training)

	heldOut, err := parallel.MapN(0, 4, func(t int) (*session.Trace, error) {
		return runOne(g, enc, viewer.SamplePopulation(1, root.Stream(uint64(100+t)))[0],
			cond, seed+uint64(5000+t*17), nil)
	})
	if err != nil {
		return nil, err
	}

	trainers := []struct {
		name    string
		trainer attack.Trainer
	}{
		{"interval-band", &attack.IntervalBandTrainer{}},
		{"nearest-centroid", attack.NearestCentroidTrainer{}},
		{"knn-5", attack.KNNTrainer{K: 5}},
	}
	res := &ClassifierAblationResult{PerClassifier: map[string]float64{}}
	for _, tc := range trainers {
		clf, err := tc.trainer.Train(examples)
		if err != nil {
			return nil, fmt.Errorf("training %s: %w", tc.name, err)
		}
		cm := stats.NewConfusionMatrix("others", "type-1", "type-2")
		for _, trc := range heldOut {
			for _, w := range trc.ClientWrites {
				if w.Label == session.LabelHandshake {
					continue
				}
				actual := "others"
				switch w.Label {
				case session.LabelType1:
					actual = "type-1"
				case session.LabelType2:
					actual = "type-2"
				}
				for _, r := range w.Records {
					got, _ := clf.Classify(r.Length)
					cm.Observe(actual, got.String())
				}
			}
		}
		res.PerClassifier[tc.name] = cm.Accuracy()
	}
	var b strings.Builder
	b.WriteString("Ablation: record classifier comparison (record-level accuracy)\n")
	rows := [][]string{}
	for _, tc := range trainers {
		rows = append(rows, []string{tc.name, fmt.Sprintf("%.2f%%", 100*res.PerClassifier[tc.name])})
	}
	b.WriteString(stats.RenderTable([]string{"classifier", "accuracy"}, rows))
	res.Report = b.String()
	return res, nil
}

package main

import (
	"fmt"
	"time"

	wm "repro"
	"repro/internal/attack"
	"repro/internal/profiles"
	"repro/internal/script"
)

// A run repeats its set-up at least minSetupReps times, and keeps going
// while it has spent less than setupBudget, up to maxSetupReps; setup_s is
// the median.
const (
	minSetupReps = 7
	maxSetupReps = 51
	setupBudget  = time.Second
)

// moreSetup reports whether another set-up repetition should run.
func moreSetup(rep int, since time.Time) bool {
	return rep < minSetupReps || (rep < maxSetupReps && time.Since(since) < setupBudget)
}

// trainSeed seeds the attacker's profiling sessions. The attacker profiles
// the service on its own, so its sessions do not depend on the victims'
// inputs, and every run's set-up does the same work. Training runs on one
// worker, so set-up time does not depend on whether the second CPU is
// free at that moment.
const trainSeed = 22

// attackers maps each capture condition to the attacker trained for it.
type attackers map[profiles.Condition]*attack.Attacker

// setupTimes is what the attack set-up measured.
type setupTimes struct {
	runs      []float64 // seconds per repetition
	trainMS   []float64 // per TrainAttacker call
	pathTable []float64 // ms per table build
	attackers int
}

// trainAttackers is the attack workloads' set-up: TrainAttacker (three
// profiling sessions) once per condition, then the first PathTableFor.
// It repeats (see moreSetup) and keeps the last repetition's attackers.
// PathTableFor memoizes its table, so repetitions after the first time
// NewPathTable, the build PathTableFor runs on a miss.
func trainAttackers(conds []profiles.Condition, t *tracer) (attackers, *setupTimes, error) {
	g := script.Bandersnatch()
	st := &setupTimes{}
	var atks attackers
	begin := time.Now()
	for rep := 0; moreSetup(rep, begin); rep++ {
		req := fmt.Sprintf("setup-%d", rep)
		root := 0
		if t != nil {
			root = t.open("harness.setup", req, 0)
		}
		start := time.Now()
		atks = attackers{}
		for _, c := range conds {
			cs := time.Now()
			a, err := wm.TrainAttacker(wm.TrainingOptions{Condition: c, Sessions: 3, Seed: trainSeed, Workers: 1})
			if err != nil {
				return nil, nil, fmt.Errorf("training for %v: %w", c, err)
			}
			st.trainMS = append(st.trainMS, ms(time.Since(cs)))
			if t != nil {
				t.add("repro.TrainAttacker", req, root, int64(cs.Sub(t.epoch)), t.now())
			}
			atks[c] = a
		}
		ts := time.Now()
		name := "attack.PathTableFor"
		var err error
		if rep == 0 {
			_, err = attack.PathTableFor(g, script.BandersnatchMaxChoices)
		} else {
			name = "attack.NewPathTable"
			_, err = attack.NewPathTable(g, script.BandersnatchMaxChoices)
		}
		if err != nil {
			return nil, nil, err
		}
		st.pathTable = append(st.pathTable, ms(time.Since(ts)))
		if t != nil {
			t.add(name, req, root, int64(ts.Sub(t.epoch)), t.now())
			t.close(root)
		}
		st.runs = append(st.runs, time.Since(start).Seconds())
	}
	st.attackers = len(atks)
	return atks, st, nil
}

// report adds the set-up figures to r.
func (st *setupTimes) report(r *report) {
	r.e2e["setup_s"] = median(append([]float64(nil), st.runs...))
	r.layer["attack.train_ms_per_attacker"] = mean(st.trainMS)
	r.layer["attack.path_table_ms"] = median(append([]float64(nil), st.pathTable...))
	r.shapef("setup", "%d attackers (one per condition), %d repetitions", st.attackers, len(st.runs))
}

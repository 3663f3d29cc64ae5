package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/defense"
	"repro/internal/parallel"
	"repro/internal/profiles"
	"repro/internal/script"
	"repro/internal/session"
	"repro/internal/stats"
	"repro/internal/viewer"
	"repro/internal/wire"
)

// TimingResult evaluates the timing attack with the record-length
// defense active — the paper's closing warning that fixing lengths does
// not close the channel.
type TimingResult struct {
	// EventDetectionRate is the fraction of true choice points the
	// timing detector finds under the padded defense.
	EventDetectionRate float64
	// DecisionAccuracy is the default/non-default accuracy at detected
	// choice points.
	DecisionAccuracy float64
	Report           string
}

// Timing runs padded-defense sessions and attacks them with traffic
// structure only: detected events are matched to ground-truth question
// times and decisions classified by the decision-time client record pair
// (a non-default choice posts the type-2 report and fires the first
// alternative chunk request back-to-back; no calibration needed).
// Sessions fan out across the worker pool and per-session tallies fold in
// session order.
func Timing(sessions int, seed uint64) (*TimingResult, error) {
	if sessions <= 0 {
		sessions = 6
	}
	g := script.Bandersnatch()
	enc := sharedEncoding(g, seed)
	cond := profiles.Fig2Ubuntu
	root := wire.NewRNG(seed)
	ta := &defense.TimingAttack{QuietBefore: 3 * time.Second, Feature: defense.FeaturePairs}
	scores, err := parallel.MapN(0, sessions, func(i int) (timingScore, error) {
		tr, err := runOne(g, enc, viewer.SamplePopulation(1, root.Stream(uint64(100+i)))[0],
			cond, seed+uint64(7000+i*53), func(c *session.Config) { c.Wire = reportsPadded })
		if err != nil {
			return timingScore{}, err
		}
		return scoreTiming(ta, tr)
	})
	if err != nil {
		return nil, err
	}
	var detected, trueEvents, correct int
	for _, sc := range scores {
		detected += sc.matched
		trueEvents += sc.choices
		correct += sc.correct
	}

	res := &TimingResult{}
	if trueEvents > 0 {
		res.EventDetectionRate = float64(detected) / float64(trueEvents)
	}
	if detected > 0 {
		res.DecisionAccuracy = float64(correct) / float64(detected)
	}
	var b strings.Builder
	b.WriteString("Residual timing side-channel (§VI warning), record lengths padded:\n")
	rows := [][]string{
		{"choice points detected", fmt.Sprintf("%.0f%%", 100*res.EventDetectionRate)},
		{"default/non-default accuracy", fmt.Sprintf("%.0f%%", 100*res.DecisionAccuracy)},
	}
	b.WriteString(stats.RenderTable([]string{"metric", "value"}, rows))
	b.WriteString("\nPadding hides which report was sent, but the check-pointed pause and\n" +
		"the prefetch-cancel stall remain visible in timing, as the paper warns.\n")
	res.Report = b.String()
	return res, nil
}

// --- Ablation: prefetch off ----------------------------------------------------

// PrefetchAblationResult shows the timing channel collapsing when the
// player does not prefetch the default branch.
type PrefetchAblationResult struct {
	WithPrefetch    float64 // timing-attack decision accuracy
	WithoutPrefetch float64
	Report          string
}

// PrefetchAblation compares volume-based timing-attack accuracy with and
// without default-branch prefetching (record lengths padded in both).
// Without prefetch there is no discarded download, so the volume
// asymmetry between default and non-default choices shrinks. Within each
// player mode the calibration batch and the scored sessions fan out
// across the pool.
func PrefetchAblation(sessions int, seed uint64) (*PrefetchAblationResult, error) {
	if sessions <= 0 {
		sessions = 5
	}
	run := func(disablePrefetch bool) (float64, error) {
		g := script.Bandersnatch()
		enc := sharedEncoding(g, seed)
		cond := profiles.Fig2Ubuntu
		root := wire.NewRNG(seed ^ 0x5eed)
		// The ablation deliberately uses the volume feature: it is the
		// one that depends on the prefetch-cancel creating a redundant
		// download (the pair feature keys on the client side and works
		// either way).
		ta := &defense.TimingAttack{QuietBefore: 3 * time.Second, Feature: defense.FeatureVolume}
		padded := func(c *session.Config) {
			c.Wire = reportsPadded
			c.DisablePrefetch = disablePrefetch
		}
		// calibrate scores one held-out session, whose matched event
		// volumes are the calibration data.
		calibrate := func(t int) (timingScore, error) {
			tr, err := runOne(g, enc, viewer.SamplePopulation(1, root.Stream(uint64(t+900)))[0],
				cond, seed+uint64(t)*881, padded)
			if err != nil {
				return timingScore{}, err
			}
			return scoreTiming(ta, tr)
		}

		// Calibrate per player mode on held-out sessions: a parallel batch
		// of six so the class means are stable, extended sequentially while
		// a class is still unrepresented.
		var defVols, altVols []int
		batch, err := parallel.MapN(0, 6, calibrate)
		if err != nil {
			return 0, err
		}
		for _, v := range batch {
			defVols = append(defVols, v.defVols...)
			altVols = append(altVols, v.altVols...)
		}
		for t := 6; t < 12 && (len(defVols) == 0 || len(altVols) == 0); t++ {
			v, err := calibrate(t)
			if err != nil {
				return 0, err
			}
			defVols = append(defVols, v.defVols...)
			altVols = append(altVols, v.altVols...)
		}
		ta.CalibrateVolume(defVols, altVols)

		scores, err := parallel.MapN(0, sessions, func(i int) (timingScore, error) {
			tr, err := runOne(g, enc, viewer.SamplePopulation(1, root.Stream(uint64(i+1)))[0],
				cond, seed+uint64(i)*67, padded)
			if err != nil {
				return timingScore{}, err
			}
			return scoreTiming(ta, tr)
		})
		if err != nil {
			return 0, err
		}
		var correct, scored int
		for _, sc := range scores {
			correct += sc.correct
			scored += sc.matched
		}
		if scored == 0 {
			return 0, nil
		}
		return float64(correct) / float64(scored), nil
	}
	// The two player modes run back to back: each already saturates the
	// worker pool through its calibration and scoring fan-outs, and
	// nesting them in another MapN would double the configured bound.
	with, err := run(false)
	if err != nil {
		return nil, err
	}
	without, err := run(true)
	if err != nil {
		return nil, err
	}
	res := &PrefetchAblationResult{WithPrefetch: with, WithoutPrefetch: without}
	var b strings.Builder
	b.WriteString("Ablation: the timing channel needs the prefetch-cancel\n")
	rows := [][]string{
		{"prefetch enabled (film behaviour)", fmt.Sprintf("%.0f%%", 100*res.WithPrefetch)},
		{"prefetch disabled", fmt.Sprintf("%.0f%%", 100*res.WithoutPrefetch)},
	}
	b.WriteString(stats.RenderTable([]string{"player mode", "timing-attack accuracy"}, rows))
	res.Report = b.String()
	return res, nil
}

// reportsPadded is the wire the timing experiments run under: TLS 1.2
// with every state report padded to 4096 bytes, so record lengths carry
// no choice signal and only timing and volume are left.
var reportsPadded = mustWire("tls1.2+reports-pad-4096")

// timingScore is the timing attack's outcome on one session.
type timingScore struct {
	// choices counts the session's choice points; matched counts those
	// with a detected event within 6 s of the question, and correct the
	// matched ones whose decision the attack got right.
	choices, matched, correct int
	// defVols and altVols are the matched events' downlink volumes, split
	// by the true decision: the volume feature's calibration data.
	defVols, altVols []int
}

// scoreTiming runs the timing attack on one session's trace: it detects
// and classifies events from the records alone, then matches each event
// to the choice whose question it follows.
func scoreTiming(ta *defense.TimingAttack, tr *session.Trace) (timingScore, error) {
	obs, err := observationOf(tr)
	if err != nil {
		return timingScore{}, err
	}
	events := ta.DetectEvents(obs.ClientRecords, obs.ServerRecords)
	decisions := ta.ClassifyEvents(events)
	truth := tr.Result.Choices
	times := make([]time.Time, len(truth))
	for k, c := range truth {
		times[k] = c.QuestionAt
	}
	out := timingScore{choices: len(truth)}
	for k, j := range defense.MatchEvents(events, times, 6*time.Second) {
		if j < 0 {
			continue
		}
		out.matched++
		if decisions[j] == truth[k].TookDefault {
			out.correct++
		}
		if truth[k].TookDefault {
			out.defVols = append(out.defVols, events[j].DownlinkBytes)
		} else {
			out.altVols = append(out.altVols, events[j].DownlinkBytes)
		}
	}
	return out, nil
}

package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/attack"
	"repro/internal/parallel"
	"repro/internal/profiles"
	"repro/internal/script"
	"repro/internal/session"
	"repro/internal/stats"
	"repro/internal/viewer"
	"repro/internal/wire"
)

// ShapingCell is one cell of the traffic-shaping sweep: the wire stack
// the service speaks, with the shaping policy in force, and the number
// of noise flows interleaved into each capture.
type ShapingCell struct {
	Wire       session.Wire
	NoiseFlows int
}

// Label renders the cell the way the report and wmbench metrics spell
// it: "tls1.3+pad-to-64/noise-2".
func (c ShapingCell) Label() string {
	return fmt.Sprintf("%s/noise-%d", c.Wire, c.NoiseFlows)
}

// DefaultTLSCells is the sweep the tls13 experiment runs, every cell at
// two noise flows: the TLS 1.2 baseline, unpadded TLS 1.3, two bucket
// paddings and two random paddings. At the default seed pad-to-256
// already costs detection, and pad-random-512 smears the report bands
// together so the attack declines to train.
func DefaultTLSCells() []ShapingCell {
	return cellsAt(2, "tls1.2", "tls1.3", "tls1.3+pad-to-64", "tls1.3+pad-to-256",
		"tls1.3+pad-random-128", "tls1.3+pad-random-512")
}

// DefaultQUICCells is the sweep the quic experiment runs: default sizing
// under zero, one and two noise flows — picking the interactive flow out
// of same-transport cover traffic is the step QUIC changes most — then,
// at two noise flows, a smaller fixed datagram cap and the two padding
// defenses. At the default seed neither defense trains: pad-full-1350
// quantizes every burst to whole 1350-byte datagrams, so a non-report
// burst lands on a report band's total, and pad-random-1350+2's dummy
// datagrams widen the type-1 and type-2 bands until they overlap.
func DefaultQUICCells() []ShapingCell {
	cells := cellsAt(0, "quic+default-1350")
	cells = append(cells, cellsAt(1, "quic+default-1350")...)
	return append(cells, cellsAt(2, "quic+default-1350", "quic+fixed-1200",
		"quic+pad-full-1350", "quic+pad-random-1350+2")...)
}

// DefaultReportCells is the countermeasure sweep the defenses experiment
// runs, at zero noise flows: the TLS 1.2 stack the paper measured, then
// the paper's §VI transforms of its state reports, padded to 4096 bytes,
// split into 1200-byte writes and compressed to 55%. At the default seed
// the adaptive attacker cannot train under padding or splitting, and
// trains under compression.
func DefaultReportCells() []ShapingCell {
	return cellsAt(0, "tls1.2", "tls1.2+reports-pad-4096", "tls1.2+reports-split-1200",
		"tls1.2+reports-compress-55")
}

// cellsAt builds one noise level's cells from wire labels.
func cellsAt(noiseFlows int, labels ...string) []ShapingCell {
	cells := make([]ShapingCell, len(labels))
	for i, l := range labels {
		cells[i] = ShapingCell{Wire: mustWire(l), NoiseFlows: noiseFlows}
	}
	return cells
}

// mustWire parses a wire label the package spells as a constant, so a
// label that does not parse is a programming error.
func mustWire(label string) session.Wire {
	w, err := session.ParseWire(label)
	if err != nil {
		panic(err)
	}
	return w
}

// bareStack is w's stack with no shaping policy in force.
func bareStack(w session.Wire) session.Wire {
	return session.Wire{Transport: w.Transport, Record: w.Record}
}

// AttackScore is one attacker's record over a set of captures.
type AttackScore struct {
	// Detected counts captures where the streaming monitor finalized on
	// the interactive flow rather than a noise flow.
	Detected int
	// DetectionRate is Detected over the captures attacked.
	DetectionRate float64
	// MeanAccuracy is the mean per-choice recovery over detected
	// captures (0 when none detected).
	MeanAccuracy float64
	// FullPathRate is the fraction of captures whose complete decision
	// vector was recovered.
	FullPathRate float64
	// MeanMargin is the mean decode margin over detected captures.
	MeanMargin float64
}

// ShapingPoint aggregates one cell's results under two threat models.
// The embedded AttackScore is the adaptive attacker's, who re-profiles
// the service under the cell's wire; Stale is the attacker's who
// profiled the cell's bare stack before the policy deployed.
type ShapingPoint struct {
	Cell ShapingCell
	// Trainable reports whether interval-band profiling succeeded under
	// the cell's wire; a shaping policy that smears the report classes
	// together fails training ("not separable") and every adaptive rate
	// reads zero.
	Trainable bool
	// TrainError carries the training failure for the report.
	TrainError string
	// Sessions is the number of attacked captures.
	Sessions int
	AttackScore
	// Stale is the score of the attacker profiled on the cell's bare
	// stack (its transport and record layer, no policy), attacking the
	// same captures with the bands it learned unshaped. On an unshaped
	// cell it is the adaptive score; it reads zero if the bare stack does
	// not train.
	Stale AttackScore
	// ClientBytes is the total client-direction wire volume across the
	// test sessions (TLS stream or UDP payload bytes) — the figure a
	// shaping policy inflates.
	ClientBytes int64
	// OverheadPct is ClientBytes' growth over the first trainable cell
	// on the same stack with no policy, which carries the identical
	// sessions unshaped. It is measured whether or not the cell itself
	// trains, so a policy that defeats profiling still shows its cost;
	// it is 0 for that unshaped cell and when no such cell trained.
	OverheadPct float64
}

// ShapingResult is the traffic-shaping sweep summary: how the attack
// fares on each wire stack, and what each shaping policy buys and costs.
type ShapingResult struct {
	Points []ShapingPoint
	// BlindFloor is the mean per-choice accuracy of an attacker with no
	// evidence: the top hypothesis PathTable.Decode gives over no
	// records, scored against the truth of every capture of the sweep.
	// A policy that removes the length signal leaves the attack here, not
	// at zero.
	BlindFloor float64
	Report     string
}

// shapingAttacker is the attacker trained under one wire, or the reason
// training failed.
type shapingAttacker struct {
	atk      *attack.Attacker
	trainErr string
}

// shapingOutcome is one capture's scores under both attackers and under
// the blind decode, with the session's client-direction bytes.
type shapingOutcome struct {
	adaptive, stale, blind captureScore
	clientBytes            int64
}

// Shaping runs the traffic-shaping scenario end to end for every cell.
// It profiles the service once per distinct wire, each cell's and each
// cell's bare stack, widening the learned bands by the wire's envelope.
// Then it renders the test sessions under each cell's wire as
// interleaved multi-flow captures (noise flows speak the session's
// transport and record generation) and feeds each capture through the
// streaming Monitor twice: once for the attacker trained under the
// cell's wire (adaptive) and once for the one trained on its bare stack
// (stale). Each attack scores whether the interactive flow was found
// and how many choices were recovered. Cells share test viewers and
// seeds, so rows are directly comparable; training and sessions fan out
// across the worker pool deterministically.
func Shaping(sessions int, cells []ShapingCell, seed uint64) (*ShapingResult, error) {
	if sessions <= 0 {
		sessions = 4
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("shaping: no cells to run")
	}
	g := script.Bandersnatch()
	enc := sharedEncoding(g, seed)
	cond := profiles.Fig2Ubuntu
	root := wire.NewRNG(seed)
	pop := viewer.SamplePopulation(sessions, root.Stream(77))
	table, err := attack.PathTableFor(g, script.BandersnatchMaxChoices)
	if err != nil {
		return nil, err
	}
	hyps, err := table.Decode(nil, time.Time{}, attack.DecodeParams{})
	if err != nil {
		return nil, err
	}
	blind := hyps[0].Decisions

	var wires []session.Wire
	index := map[session.Wire]int{}
	for _, c := range cells {
		for _, w := range []session.Wire{c.Wire, bareStack(c.Wire)} {
			if _, ok := index[w]; !ok {
				index[w] = len(wires)
				wires = append(wires, w)
			}
		}
	}
	attackers, err := parallel.Map(0, wires, func(_ int, w session.Wire) (shapingAttacker, error) {
		training, err := profileSessions(g, enc, cond, 3, 10,
			func(t int) (viewer.Viewer, uint64) {
				return viewer.SamplePopulation(1, root.Stream(uint64(t+1)))[0],
					seed + uint64(t)*131
			},
			func(_ int, cfg *session.Config) { cfg.Wire = w })
		if err != nil {
			return shapingAttacker{}, fmt.Errorf("shaping %s: %w", w, err)
		}
		atk, err := attack.NewAttackerWithTrainer(attack.TrainerFor(w), training, g, script.BandersnatchMaxChoices)
		if err != nil {
			// A policy that smears the bands together is a measured
			// outcome of the sweep, not a driver failure.
			return shapingAttacker{trainErr: err.Error()}, nil
		}
		return shapingAttacker{atk: atk}, nil
	})
	if err != nil {
		return nil, err
	}

	outcomes, err := parallel.MapN(0, len(cells)*len(pop), func(k int) (shapingOutcome, error) {
		c, s := cells[k/len(pop)], k%len(pop)
		tr, err := runOne(g, enc, pop[s], cond, seed+uint64(4000+s*59),
			func(cfg *session.Config) {
				cfg.OmitServerPayload = false
				cfg.Wire = c.Wire
			})
		if err != nil {
			return shapingOutcome{}, fmt.Errorf("shaping %s: %w", c.Label(), err)
		}
		truth := tr.GroundTruthDecisions()
		// The blind decode attacks no flow, so every capture counts as
		// detected and tally averages its accuracy over all of them.
		out := shapingOutcome{blind: captureScore{detected: true}, clientBytes: int64(len(tr.ClientToServer.Bytes))}
		out.blind.correct, out.blind.total = attack.ScoreDecisions(blind, truth)
		data, err := renderCapture(tr, c.NoiseFlows, seed+uint64(s)*13)
		if err != nil {
			return shapingOutcome{}, err
		}
		if atk := attackers[index[c.Wire]].atk; atk != nil {
			if out.adaptive, err = attackCapture(atk, data, truth); err != nil {
				return shapingOutcome{}, err
			}
		}
		if bare := bareStack(c.Wire); bare == c.Wire {
			out.stale = out.adaptive
		} else if atk := attackers[index[bare]].atk; atk != nil {
			if out.stale, err = attackCapture(atk, data, truth); err != nil {
				return shapingOutcome{}, err
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}

	res := &ShapingResult{}
	var blinds []captureScore
	for i, c := range cells {
		own := attackers[index[c.Wire]]
		p := ShapingPoint{Cell: c, Trainable: own.atk != nil, TrainError: own.trainErr, Sessions: len(pop)}
		var adaptive, stale []captureScore
		for _, o := range outcomes[i*len(pop) : (i+1)*len(pop)] {
			adaptive = append(adaptive, o.adaptive)
			stale = append(stale, o.stale)
			blinds = append(blinds, o.blind)
			p.ClientBytes += o.clientBytes
		}
		p.AttackScore, p.Stale = tally(adaptive), tally(stale)
		res.Points = append(res.Points, p)
	}
	res.BlindFloor = tally(blinds).MeanAccuracy
	for i := range res.Points {
		p := &res.Points[i]
		for _, base := range res.Points {
			if base.Trainable && base.Cell.Wire == bareStack(p.Cell.Wire) {
				p.OverheadPct = 100 * float64(p.ClientBytes-base.ClientBytes) / float64(base.ClientBytes)
				break
			}
		}
	}
	res.Report = renderShaping(res)
	return res, nil
}

func renderShaping(res *ShapingResult) string {
	var b strings.Builder
	b.WriteString("Traffic shaping: attack vs wire stack, shaping policy and cover traffic\n")
	b.WriteString("(interleaved captures, noise flows on the session's stack, streaming attack.Monitor;\n")
	b.WriteString("adaptive attacker profiled under the cell's wire, bands widened by its envelope;\n")
	b.WriteString("stale attacker profiled on the cell's bare stack, before the policy deployed)\n")
	rows := [][]string{}
	for _, p := range res.Points {
		row := []string{p.Cell.Label(), "not separable", "-", "-", "-"}
		if p.Trainable {
			row = []string{
				p.Cell.Label(),
				fmt.Sprintf("%d/%d (%.0f%%)", p.Detected, p.Sessions, 100*p.DetectionRate),
				fmt.Sprintf("%.1f%%", 100*p.MeanAccuracy),
				fmt.Sprintf("%.0f%%", 100*p.FullPathRate),
				fmt.Sprintf("%.3f", p.MeanMargin),
			}
		}
		rows = append(rows, append(row,
			fmt.Sprintf("%+.1f%%", p.OverheadPct),
			fmt.Sprintf("%d/%d (%.0f%%)", p.Stale.Detected, p.Sessions, 100*p.Stale.DetectionRate),
			fmt.Sprintf("%.1f%%", 100*p.Stale.MeanAccuracy)))
	}
	b.WriteString(stats.RenderTable([]string{"wire/noise", "detection", "choice accuracy", "full paths",
		"margin", "overhead", "stale detection", "stale accuracy"}, rows))
	fmt.Fprintf(&b, "blind floor (the decode of no records): %.1f%% choice accuracy\n", 100*res.BlindFloor)
	b.WriteString("\nA cell marked \"not separable\" defeated interval-band profiling outright: the\n")
	b.WriteString("widened report bands overlap, or non-report traffic lands inside one (pad-full\n")
	b.WriteString("quantizes every burst to whole datagrams), and the adaptive attacker declines to\n")
	b.WriteString("train. Overhead is client bytes over the same stack's unshaped cell.\n")
	return b.String()
}

package experiments

import (
	"fmt"
	"strings"

	"repro/internal/attack"
	"repro/internal/media"
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

// cellsAt builds one noise level's cells from wire labels; the labels
// are constants, so one that does not parse is a programming error.
func cellsAt(noiseFlows int, labels ...string) []ShapingCell {
	cells := make([]ShapingCell, len(labels))
	for i, l := range labels {
		w, err := session.ParseWire(l)
		if err != nil {
			panic(err)
		}
		cells[i] = ShapingCell{Wire: w, NoiseFlows: noiseFlows}
	}
	return cells
}

// ShapingPoint aggregates one cell's results.
type ShapingPoint struct {
	Cell ShapingCell
	// Trainable reports whether interval-band profiling succeeded under
	// the cell's wire; a shaping policy that smears the report classes
	// together fails training ("not separable") and every rate below
	// reads zero.
	Trainable bool
	// TrainError carries the training failure for the report.
	TrainError string
	// Sessions is the number of attacked captures.
	Sessions int
	// Detected counts captures where the streaming monitor finalized on
	// the interactive flow rather than a noise flow.
	Detected int
	// DetectionRate is Detected / Sessions.
	DetectionRate float64
	// MeanAccuracy is the mean per-choice recovery over detected
	// captures (0 when none detected).
	MeanAccuracy float64
	// FullPathRate is the fraction of sessions whose complete decision
	// vector was recovered.
	FullPathRate float64
	// MeanMargin is the mean decode margin over detected captures.
	MeanMargin float64
	// ClientBytes is the total client-direction wire volume across the
	// test sessions (TLS stream or UDP payload bytes) — the figure a
	// shaping policy inflates.
	ClientBytes int64
	// OverheadPct is ClientBytes' growth over the first trainable cell
	// on the same stack with no policy, which carries the identical
	// sessions unshaped (0 for that cell itself and for untrainable
	// cells).
	OverheadPct float64
}

// ShapingResult is the traffic-shaping sweep summary: how the attack
// fares on each wire stack, and what each shaping policy buys and costs.
type ShapingResult struct {
	Points []ShapingPoint
	Report string
}

// Shaping runs the traffic-shaping scenario end to end for every cell:
// profile the service under the cell's wire — widening the learned bands
// by the wire's envelope — then render test sessions as interleaved
// multi-flow captures (noise flows speak the session's transport and
// record generation) and attack them through the streaming Monitor,
// scoring whether the interactive flow was found and how many choices
// were recovered. Cells share test viewers and seeds, so rows are
// directly comparable; sessions fan out across the worker pool
// deterministically.
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

	res := &ShapingResult{}
	for _, c := range cells {
		pt, err := shapingPoint(g, enc, cond, c, pop, seed, root)
		if err != nil {
			return nil, fmt.Errorf("shaping %s: %w", c.Label(), err)
		}
		res.Points = append(res.Points, *pt)
	}
	for i := range res.Points {
		p := &res.Points[i]
		bare := session.Wire{Transport: p.Cell.Wire.Transport, Record: p.Cell.Wire.Record}
		for _, base := range res.Points {
			if base.Trainable && base.Cell.Wire == bare {
				if p.Trainable {
					p.OverheadPct = 100 * float64(p.ClientBytes-base.ClientBytes) / float64(base.ClientBytes)
				}
				break
			}
		}
	}
	res.Report = renderShaping(res)
	return res, nil
}

// shapingPoint trains and attacks under one cell.
func shapingPoint(g *script.Graph, enc *media.Encoding, cond profiles.Condition, c ShapingCell,
	pop []viewer.Viewer, seed uint64, root *wire.RNG) (*ShapingPoint, error) {
	pt := &ShapingPoint{Cell: c, Sessions: len(pop)}
	training, err := profileSessions(g, enc, cond, 3, 10,
		func(t int) (viewer.Viewer, uint64) {
			return viewer.SamplePopulation(1, root.Stream(uint64(t+1)))[0],
				seed + uint64(t)*131
		},
		func(t int, cfg *session.Config) { cfg.Wire = c.Wire })
	if err != nil {
		return nil, err
	}
	atk, err := attack.NewAttackerWithTrainer(attack.TrainerFor(c.Wire),
		training, g, script.BandersnatchMaxChoices)
	if err != nil {
		// A policy that smears the bands together is a measured outcome
		// of the sweep, not a driver failure.
		pt.TrainError = err.Error()
		return pt, nil
	}
	pt.Trainable = true

	scores, err := parallel.MapN(0, len(pop), func(s int) (captureScore, error) {
		tr, err := runOne(g, enc, pop[s], cond, seed+uint64(4000+s*59),
			func(cfg *session.Config) {
				cfg.OmitServerPayload = false
				cfg.Wire = c.Wire
			})
		if err != nil {
			return captureScore{}, err
		}
		return attackCapture(atk, tr, c.NoiseFlows, seed+uint64(s)*13)
	})
	if err != nil {
		return nil, err
	}
	t := tally(scores)
	pt.Detected = t.detected
	pt.DetectionRate = float64(t.detected) / float64(len(pop))
	pt.MeanAccuracy = t.meanAccuracy
	pt.FullPathRate = float64(t.fullPaths) / float64(len(pop))
	pt.MeanMargin = t.meanMargin
	pt.ClientBytes = t.clientBytes
	return pt, nil
}

func renderShaping(res *ShapingResult) string {
	var b strings.Builder
	b.WriteString("Traffic shaping: attack vs wire stack, shaping policy and cover traffic\n")
	b.WriteString("(interleaved captures, noise flows on the session's stack, streaming attack.Monitor;\n")
	b.WriteString("bands widened by the wire's envelope)\n")
	rows := [][]string{}
	for _, p := range res.Points {
		if !p.Trainable {
			rows = append(rows, []string{p.Cell.Label(), "not separable", "-", "-", "-", "-"})
			continue
		}
		rows = append(rows, []string{
			p.Cell.Label(),
			fmt.Sprintf("%d/%d (%.0f%%)", p.Detected, p.Sessions, 100*p.DetectionRate),
			fmt.Sprintf("%.1f%%", 100*p.MeanAccuracy),
			fmt.Sprintf("%.0f%%", 100*p.FullPathRate),
			fmt.Sprintf("%.3f", p.MeanMargin),
			fmt.Sprintf("%+.1f%%", p.OverheadPct),
		})
	}
	b.WriteString(stats.RenderTable(
		[]string{"wire/noise", "detection", "choice accuracy", "full paths", "margin", "overhead"}, rows))
	b.WriteString("\nA cell marked \"not separable\" defeated interval-band profiling outright: the\n")
	b.WriteString("widened report bands overlap, or non-report traffic lands inside one (pad-full\n")
	b.WriteString("quantizes every burst to whole datagrams), and the attack declines to train.\n")
	b.WriteString("Overhead is client bytes over the same stack's unshaped cell.\n")
	return b.String()
}

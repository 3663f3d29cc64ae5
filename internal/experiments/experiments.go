// Package experiments contains one driver per paper artefact: Table I,
// Figure 1, Figure 2, the §V headline accuracy result, and the ablations
// DESIGN.md calls out (baseline failure intra-video, countermeasures, the
// residual timing channel, classifier and decoder variants). Each driver
// returns structured results plus a rendered text report, and is invoked
// both by cmd/wmbench and by the root-level benchmark harness.
package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/media"
	"repro/internal/parallel"
	"repro/internal/profiles"
	"repro/internal/script"
	"repro/internal/session"
	"repro/internal/stats"
	"repro/internal/tlsrec"
	"repro/internal/viewer"
	"repro/internal/wire"
)

// sharedEncoding returns the cached default title encoding shared across
// experiments and sessions.
func sharedEncoding(g *script.Graph, seed uint64) *media.Encoding {
	return media.EncodeCached(g, media.DefaultLadder, seed)
}

// runOne simulates a single session. Unless opts says otherwise, the
// session is lean (session.Config.Lean): it writes no bytes in either
// direction, and its descriptors are exact either way. Only a capture
// render reads bytes, so a driver that renders one asks for a full trace.
func runOne(g *script.Graph, enc *media.Encoding, v viewer.Viewer,
	cond profiles.Condition, seed uint64, opts func(*session.Config)) (*session.Trace, error) {
	cfg := session.Config{
		Graph: g, Encoding: enc, Viewer: v, Condition: cond,
		SessionID: fmt.Sprintf("exp-%d", seed), Seed: seed,
		Lean: true,
	}
	if opts != nil {
		opts(&cfg)
	}
	return session.Run(cfg)
}

// fullTrace is the runOne option of a driver that renders the trace as a
// capture, which needs the client bytes a lean session does not write.
func fullTrace(cfg *session.Config) { cfg.Lean = false }

// profileSessions simulates training sessions under one condition until
// both report classes are present: at least minN sessions, at most maxN.
// at supplies the viewer and session seed for index t, and opts (may be
// nil) adjusts the t-th session's config; the loop is sequential because
// its length is data-dependent, but every caller runs it from inside a
// parallel task of its own.
func profileSessions(g *script.Graph, enc *media.Encoding, cond profiles.Condition,
	minN, maxN int, at func(t int) (viewer.Viewer, uint64),
	opts func(t int, cfg *session.Config)) ([]*session.Trace, error) {
	var training []*session.Trace
	for t := 0; t < maxN; t++ {
		v, s := at(t)
		var perSession func(*session.Config)
		if opts != nil {
			tt := t
			perSession = func(cfg *session.Config) { opts(tt, cfg) }
		}
		tr, err := runOne(g, enc, v, cond, s, perSession)
		if err != nil {
			return nil, err
		}
		training = append(training, tr)
		if t >= minN-1 && attack.HasBothClasses(training) {
			break
		}
	}
	return training, nil
}

// observationOf turns a TCP trace into an attacker observation
// (equivalent to the pcap path, which the attack tests exercise; the
// experiment drivers skip pcap serialization for speed). Both directions
// reuse the trace's record ground truth: the client records of its
// labeled writes, in stream order, and the server records. Each list is
// exactly what parsing the rendered stream recovers, so a lean trace
// serves as well as a full one.
func observationOf(tr *session.Trace) *attack.Observation {
	n := 0
	for _, w := range tr.ClientWrites {
		n += len(w.Records)
	}
	cRecs := make([]tlsrec.Record, 0, n)
	for _, w := range tr.ClientWrites {
		cRecs = append(cRecs, w.Records...)
	}
	return &attack.Observation{ClientRecords: cRecs, ServerRecords: tr.ServerRecords}
}

// --- T1: Table I --------------------------------------------------------------

// Table1Result carries the dataset summary.
type Table1Result struct {
	N      int
	Report string
}

// Table1 generates an n-viewer dataset and renders its attribute table.
// Generation is lean — the table reads only viewer and condition
// attributes, so server payloads are never materialized.
func Table1(n int, seed uint64) (*Table1Result, error) {
	ds, err := dataset.Generate(dataset.Config{N: n, Seed: seed, Lean: true})
	if err != nil {
		return nil, err
	}
	return &Table1Result{
		N:      len(ds.Points),
		Report: "Table I: Attributes of the synthetic IITM-Bandersnatch dataset\n" + ds.TableI(),
	}, nil
}

// --- F1: Figure 1 -------------------------------------------------------------

// Figure1Event is one row of the streaming-process timeline.
type Figure1Event struct {
	AtSeconds float64
	Kind      string
	Detail    string
}

// Figure1Result reproduces the paper's streaming-process walkthrough:
// the viewer meets Q1 and takes the default, then meets Q2 and takes the
// non-default branch.
type Figure1Result struct {
	Events []Figure1Event
	Report string
}

// Figure1 runs the two-choice example session (default at Q1,
// non-default at Q2, exactly as the paper's Figure 1 narrates) and
// renders the observable event timeline.
func Figure1(seed uint64) (*Figure1Result, error) {
	g := script.TinyScript()
	enc := sharedEncoding(g, seed)
	// A scripted viewer: decisive, choices fixed by construction below.
	v := viewer.Viewer{ID: "figure1", Decisiveness: 0.9}
	// Find a seed whose decision rolls yield (default, non-default): the
	// viewer model is probabilistic, so search nearby seeds.
	for s := seed; s < seed+200; s++ {
		tr, err := runOne(g, enc, v, profiles.Fig2Ubuntu, s, nil)
		if err != nil {
			return nil, err
		}
		d := tr.GroundTruthDecisions()
		if len(d) == 2 && d[0] && !d[1] {
			return figure1Render(tr)
		}
	}
	return nil, fmt.Errorf("experiments: no seed in range produced the Figure 1 decision pattern")
}

func figure1Render(tr *session.Trace) (*Figure1Result, error) {
	res := &Figure1Result{}
	start := tr.ClientWrites[0].Time
	push := func(at float64, kind, detail string) {
		res.Events = append(res.Events, Figure1Event{AtSeconds: at, Kind: kind, Detail: detail})
	}
	for _, w := range tr.ClientWrites {
		at := w.Time.Sub(start).Seconds()
		switch w.Label {
		case session.LabelHandshake:
			push(at, "tls-handshake", fmt.Sprintf("ClientHello %d bytes", w.Plain))
		case session.LabelType1:
			push(at, "type-1 JSON", fmt.Sprintf("record %d bytes: choice question on screen", w.Records[0].Length))
		case session.LabelType2:
			push(at, "type-2 JSON", fmt.Sprintf("record %d bytes: non-default selected, prefetch discarded", w.Records[0].Length))
		}
	}
	for i, c := range tr.Result.Choices {
		branch := "default (S%d)"
		if !c.TookDefault {
			branch = "non-default (S%d')"
		}
		push(c.DecidedAt.Sub(start).Seconds(), "decision",
			fmt.Sprintf("Q%d resolved: "+branch, i+1, i+1))
	}
	sort.SliceStable(res.Events, func(i, j int) bool {
		return res.Events[i].AtSeconds < res.Events[j].AtSeconds
	})
	var b strings.Builder
	b.WriteString("Figure 1: the streaming process of the interactive title\n")
	b.WriteString("(viewer takes the default at Q1 and the non-default at Q2)\n\n")
	rows := [][]string{}
	for _, e := range res.Events {
		rows = append(rows, []string{fmt.Sprintf("%8.1fs", e.AtSeconds), e.Kind, e.Detail})
	}
	b.WriteString(stats.RenderTable([]string{"time", "event", "detail"}, rows))
	res.Report = b.String()
	return res, nil
}

// --- F2: Figure 2 -------------------------------------------------------------

// Figure2Panel is one condition's histogram.
type Figure2Panel struct {
	Condition profiles.Condition
	Histogram *stats.Histogram
}

// Figure2Result carries both panels.
type Figure2Result struct {
	Panels []Figure2Panel
	Report string
}

// figure2Bins reproduces the paper's printed bin edges per panel.
func figure2Bins(cond profiles.Condition) []stats.Bin {
	if cond == profiles.Fig2Windows {
		return []stats.Bin{
			{Lo: math.MinInt, Hi: 2335},
			{Lo: 2341, Hi: 2343},
			{Lo: 2398, Hi: 3056},
			{Lo: 3118, Hi: 3147},
			{Lo: 3159, Hi: math.MaxInt},
		}
	}
	return []stats.Bin{
		{Lo: math.MinInt, Hi: 2188},
		{Lo: 2211, Hi: 2213},
		{Lo: 2219, Hi: 2823},
		{Lo: 2992, Hi: 3017},
		{Lo: 4334, Hi: math.MaxInt},
	}
}

// Figure2 runs sessions under the two paper conditions and bins the
// client application record lengths by ground-truth class. Sessions fan
// out across the worker pool; histogram observations are folded in
// session order so the panels are identical at any worker count.
func Figure2(sessionsPerPanel int, seed uint64) (*Figure2Result, error) {
	if sessionsPerPanel <= 0 {
		sessionsPerPanel = 5
	}
	res := &Figure2Result{}
	var b strings.Builder
	for _, cond := range []profiles.Condition{profiles.Fig2Ubuntu, profiles.Fig2Windows} {
		g := script.Bandersnatch()
		enc := sharedEncoding(g, seed)
		h := stats.NewHistogram(figure2Bins(cond), "type-1 JSON", "type-2 JSON", "others")
		pop := viewer.SamplePopulation(sessionsPerPanel, wire.NewRNG(seed^uint64(len(cond.String()))))
		traces, err := parallel.Map(0, pop, func(i int, v viewer.Viewer) (*session.Trace, error) {
			return runOne(g, enc, v, cond, seed+uint64(i)*977, nil)
		})
		if err != nil {
			return nil, err
		}
		for _, tr := range traces {
			for _, w := range tr.ClientWrites {
				series := "others"
				switch w.Label {
				case session.LabelType1:
					series = "type-1 JSON"
				case session.LabelType2:
					series = "type-2 JSON"
				case session.LabelHandshake:
					continue
				}
				for _, r := range w.Records {
					h.Observe(series, r.Length)
				}
			}
		}
		res.Panels = append(res.Panels, Figure2Panel{Condition: cond, Histogram: h})
		title := fmt.Sprintf("Figure 2 panel: SSL record length distribution for (%s)", cond)
		b.WriteString(h.Render(title))
		b.WriteString("\n")
	}
	res.Report = b.String()
	return res, nil
}

// Type1Purity returns, for a panel, the percentage of type-1 records in
// the panel's narrow type-1 bin (index 1) — the quantity the paper's bars
// show at 100%.
func (p Figure2Panel) Type1Purity() float64 { return p.Histogram.Percent("type-1 JSON", 1) }

// Type2Purity is the analogue for type-2 records (bin index 3).
func (p Figure2Panel) Type2Purity() float64 { return p.Histogram.Percent("type-2 JSON", 3) }

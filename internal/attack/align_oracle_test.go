package attack

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/media"
	"repro/internal/profiles"
	"repro/internal/script"
	"repro/internal/session"
	"repro/internal/tlsrec"
	"repro/internal/viewer"
	"repro/internal/wire"
)

// The per-walk aligners, kept as the oracle for the shared-prefix ones:
// every walk is scored on its own, one Needleman–Wunsch row (batch) or
// column cell (live) per (walk, event), and Decode's ranking sorts the
// whole table stably.

// oracleScore is one walk's raw alignment score by the rolling-row pass,
// computed from row 0.
func oracleScore(expected []ExpectedEvent, obs []observedEvent) float64 {
	m, n := len(expected), len(obs)
	prev, cur := make([]float64, n+1), make([]float64, n+1)
	for j := 1; j <= n; j++ {
		prev[j] = prev[j-1] + skipObserved(obs[j-1])
	}
	for i := 1; i <= m; i++ {
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
		prev, cur = cur, prev
	}
	return prev[n]
}

// oracleDecode is PathTable.Decode with every walk scored by oracleScore
// and the table ranked with sort.SliceStable.
func oracleDecode(t *PathTable, recs []ClassifiedRecord, anchor time.Time, prm DecodeParams) []PathHypothesis {
	obs := observedEvents(recs, anchor)
	nHard := 0
	for _, o := range obs {
		if o.hard {
			nHard++
		}
	}
	maxM := 0
	for i := range t.Paths {
		maxM = max(maxM, len(t.Paths[i].Events))
	}
	hyps := make([]PathHypothesis, len(t.Paths))
	order := make([]int, len(t.Paths))
	for i := range t.Paths {
		p := &t.Paths[i]
		denom := float64(len(p.Events) + nHard)
		if denom < 1 {
			denom = 1
		}
		hyps[i] = PathHypothesis{
			Decisions: p.Decisions,
			Score:     oracleScore(p.Events, obs) / denom,
			Events:    len(p.Events),
		}
		order[i] = i
	}
	rank := func(i int) float64 { return hyps[i].Score - 1e-7*float64(hyps[i].Events) }
	sort.SliceStable(order, func(a, b int) bool {
		return rank(order[a]) > rank(order[b])
	})
	full := (maxM + 1) * (len(obs) + 1)
	a := &aligner{grid: make([]float64, full), moves: make([]byte, full)}
	out := make([]PathHypothesis, 0, prm.topK())
	for _, idx := range order[:min(prm.topK(), len(order))] {
		h := hyps[idx]
		h.Decisions = append([]bool(nil), h.Decisions...)
		h.match, h.Matched = a.traceback(t.Paths[idx].Events, obs)
		out = append(out, h)
	}
	return out
}

// oraclePrefixAligner is the live aligner with one column per walk:
// cols[w][d] is S[d][j] for walk w.
type oraclePrefixAligner struct {
	table *PathTable
	cols  [][]float64
	nHard int
}

func newOraclePrefixAligner(t *PathTable) *oraclePrefixAligner {
	pa := &oraclePrefixAligner{table: t}
	pa.cols = make([][]float64, len(t.Paths))
	for i := range t.Paths {
		col := make([]float64, len(t.Paths[i].Events)+1)
		for j := 1; j < len(col); j++ {
			col[j] = col[j-1] - expectedGapPenalty
		}
		pa.cols[i] = col
	}
	return pa
}

func (pa *oraclePrefixAligner) observe(o observedEvent) {
	if o.hard {
		pa.nHard++
	}
	skip := skipObserved(o)
	for pi := range pa.table.Paths {
		events := pa.table.Paths[pi].Events
		col := pa.cols[pi]
		prevDiag := col[0] // S[i-1][j-1], seeded with S[0][j-1]
		col[0] += skip
		for i := 1; i <= len(events); i++ {
			oldCol := col[i] // S[i][j-1]
			best := prevDiag + alignScore(events[i-1], o)
			if up := col[i-1] - expectedGapPenalty; up > best {
				best = up
			}
			if left := oldCol + skip; left > best {
				best = left
			}
			col[i] = best
			prevDiag = oldCol
		}
	}
}

func (pa *oraclePrefixAligner) prefixScore(pi int) float64 {
	best := math.Inf(-1)
	for i, v := range pa.cols[pi] {
		denom := float64(i + pa.nHard)
		if denom < 1 {
			denom = 1
		}
		if s := v / denom; s > best {
			best = s
		}
	}
	return best
}

func (pa *oraclePrefixAligner) ranking(k int) (best int, margin float64) {
	scores := make([]float64, len(pa.cols))
	rank := func(pi int) float64 {
		return scores[pi] - 1e-7*float64(len(pa.table.Paths[pi].Events))
	}
	bestRank := math.Inf(-1)
	for pi := range pa.cols {
		scores[pi] = pa.prefixScore(pi)
		if r := rank(pi); r > bestRank {
			bestRank, best = r, pi
		}
	}
	bestDec := pa.table.Paths[best].Decisions
	rival, found := math.Inf(-1), false
	for pi := range pa.cols {
		if !prefixEqual(pa.table.Paths[pi].Decisions, bestDec, k) && scores[pi] > rival {
			rival, found = scores[pi], true
		}
	}
	if !found {
		return best, 0
	}
	if m := scores[best] - rival; m > 0 {
		return best, m
	}
	return best, 0
}

// liveFinalCells returns each walk's deepest live cell, S[m][j]: the
// cell of its whole event sequence, or the root for a walk without
// events.
func liveFinalCells(pa *prefixAligner) []float64 {
	out := make([]float64, len(pa.table.Paths))
	onWalk := []float64{pa.root} // per depth, the cell on the current walk
	k := 0
	for i, p := range pa.table.Paths {
		onWalk = onWalk[:pa.table.shared[i]+1]
		for len(onWalk) <= len(p.Events) {
			onWalk = append(onWalk, pa.cells[k])
			k++
		}
		out[i] = onWalk[len(p.Events)]
	}
	return out
}

// alignersAgree compares the live aligner with the oracle after the same
// observations: every walk's deepest cell bit for bit, every walk's
// prefix score, and ranking(k) for every k from 0 to 9. Prefix scores
// and margins compare with ==, which equates the two zeros.
func alignersAgree(live *prefixAligner, oracle *oraclePrefixAligner) error {
	for pi, got := range liveFinalCells(live) {
		if want := oracle.cols[pi][len(oracle.cols[pi])-1]; math.Float64bits(got) != math.Float64bits(want) {
			return fmt.Errorf("walk %d: deepest live cell %v, oracle %v", pi, got, want)
		}
	}
	scores := make([]float64, len(live.table.Paths))
	live.prefixScores(scores)
	for pi, got := range scores {
		if want := oracle.prefixScore(pi); got != want {
			return fmt.Errorf("walk %d: prefix score %v, oracle %v", pi, got, want)
		}
	}
	for k := 0; k <= 9; k++ {
		best, margin := live.ranking(k)
		wantBest, wantMargin := oracle.ranking(k)
		if best != wantBest || margin != wantMargin {
			return fmt.Errorf("ranking(%d) = (%d, %v), oracle (%d, %v)", k, best, margin, wantBest, wantMargin)
		}
	}
	return nil
}

// hypothesesEqual compares Decode's hypotheses with the oracle's: the
// same order, Score bits, Decisions, Events, Matched and match table.
func hypothesesEqual(got, want []PathHypothesis) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d hypotheses, oracle %d", len(got), len(want))
	}
	for r := range got {
		g, w := got[r], want[r]
		if math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			return fmt.Errorf("rank %d: score %v, oracle %v", r, g.Score, w.Score)
		}
		g.Score, w.Score = 0, 0
		if !reflect.DeepEqual(g, w) {
			return fmt.Errorf("rank %d: %+v, oracle %+v", r, g, w)
		}
	}
	return nil
}

// alignObsBytes is the size of one observation in a FuzzPathTableAlign
// input: a flags byte (bit 0 type-2 rather than type-1, bit 1 soft
// rather than hard, bit 2 untimed), the confidence in 255ths, and a
// big-endian signed capture offset from the anchor in tenths of a second.
const alignObsBytes = 4

// decodeAlignRecords turns fuzz bytes into classified records, one per
// alignObsBytes; a trailing partial observation is ignored. A soft
// record of zero confidence carries no observation.
func decodeAlignRecords(in []byte) []ClassifiedRecord {
	var out []ClassifiedRecord
	for ; len(in) >= alignObsBytes; in = in[alignObsBytes:] {
		cls := ClassType1
		if in[0]&1 != 0 {
			cls = ClassType2
		}
		conf := float64(in[1]) / 255
		var r ClassifiedRecord
		if in[0]&4 == 0 {
			off := time.Duration(int16(binary.BigEndian.Uint16(in[2:4]))) * 100 * time.Millisecond
			r.Record.Time = anchorEpoch.Add(off)
		}
		if in[0]&2 != 0 {
			r.Class, r.SoftClass, r.SoftConfidence = ClassOther, cls, conf
		} else {
			r.Class, r.Confidence = cls, conf
		}
		out = append(out, r)
	}
	return out
}

// encodeAlignRecords is the inverse of decodeAlignRecords for seeds: the
// observations of recs relative to anchor, with confidence and offset
// rounded to the input's units.
func encodeAlignRecords(recs []ClassifiedRecord, anchor time.Time) []byte {
	var out []byte
	for i, r := range recs {
		o, ok := observedEventFrom(r, i, anchor)
		if !ok {
			continue
		}
		var flags byte
		if o.class == ClassType2 {
			flags |= 1
		}
		if !o.hard {
			flags |= 2
		}
		if !o.timed {
			flags |= 4
		}
		tenths := max(math.MinInt16, min(math.MaxInt16, math.Round(o.offset*10)))
		out = append(out, flags, byte(math.Round(max(0, min(1, o.conf))*255)))
		out = binary.BigEndian.AppendUint16(out, uint16(int16(tenths)))
	}
	return out
}

// alignTables are the tables a FuzzPathTableAlign input's first byte
// picks from.
func alignTables(tb testing.TB) []*PathTable {
	tb.Helper()
	var out []*PathTable
	for _, c := range []struct {
		g     *script.Graph
		depth int
	}{
		{script.Bandersnatch(), script.BandersnatchMaxChoices},
		{script.Bandersnatch(), 3},
		{script.TinyScript(), 4},
	} {
		t, err := PathTableFor(c.g, c.depth)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, t)
	}
	return out
}

// sessionAlignSeed classifies a Bandersnatch session's client records
// with atk and encodes its observations as a fuzz input on table 0.
func sessionAlignSeed(tb testing.TB, atk *Attacker, tr *session.Trace) []byte {
	tb.Helper()
	client, _, err := tlsrec.ParseStream(tr.ClientToServer.Bytes, tr.ClientToServer.TimeAt)
	if err != nil {
		tb.Fatal(err)
	}
	if len(client) == 0 {
		tb.Fatal("session has no client records")
	}
	recs := ClassifyRecords(client, atk.Classifier)
	return append([]byte{0}, encodeAlignRecords(recs, client[0].Time)...)
}

// simulate21 renders session seed 21 as the facade's Simulate does (the
// capture the pipeline benchmarks and TestMonitorAllocsPerPacket use).
func simulate21(tb testing.TB) *session.Trace {
	tb.Helper()
	const seed = 21
	g := script.Bandersnatch()
	pop := viewer.SamplePopulation(1, wire.NewRNG(seed^0xfeed))
	pop[0].ID = fmt.Sprintf("viewer-%d", seed)
	tr, err := session.Run(session.Config{
		Graph: g, Encoding: media.EncodeCached(g, media.DefaultLadder, seed^0xabcd),
		Viewer: pop[0], Condition: profiles.Fig2Ubuntu,
		SessionID: fmt.Sprintf("wm-%d", seed), Seed: seed,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

// FuzzPathTableAlign checks the shared-prefix aligners against the
// per-walk oracle on arbitrary observation sequences. The first byte
// picks the table (Bandersnatch at depth 9 or 3, TinyScript at 4); every
// alignObsBytes after it are one observation. Decode must return the
// oracle's hypotheses exactly, at the default TopK and over the whole
// table, and after every observation the live aligner must agree with
// the oracle's (alignersAgree).
func FuzzPathTableAlign(f *testing.F) {
	atk := trainedAttacker(f, profiles.Fig2Ubuntu, []uint64{101, 102, 103})
	f.Add(sessionAlignSeed(f, atk, simulate21(f)))
	f.Add(sessionAlignSeed(f, atk, runSession(f, 558, profiles.Fig2Ubuntu)))
	f.Add([]byte{0})
	// Type-1s at the all-defaults question times, then a type-2: all
	// soft, all untimed, and hard but of zero confidence.
	for _, c := range []struct{ flags, conf byte }{{2, 200}, {4, 200}, {0, 0}} {
		in := []byte{0}
		for _, o := range []struct {
			class  byte
			tenths int16
		}{{0, 480}, {0, 850}, {0, 1330}, {1, 1360}} {
			in = append(in, c.flags|o.class, c.conf)
			in = binary.BigEndian.AppendUint16(in, uint16(o.tenths))
		}
		f.Add(in)
	}
	tables := alignTables(f)
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		table := tables[int(in[0])%len(tables)]
		recs := decodeAlignRecords(in[1:])
		for _, topK := range []int{0, len(table.Paths)} {
			prm := DecodeParams{TopK: topK}
			got, err := table.Decode(recs, anchorEpoch, prm)
			if err != nil {
				t.Fatal(err)
			}
			if err := hypothesesEqual(got, oracleDecode(table, recs, anchorEpoch, prm)); err != nil {
				t.Fatalf("TopK %d: %v", topK, err)
			}
		}
		live, oracle := newPrefixAligner(table), newOraclePrefixAligner(table)
		if err := alignersAgree(live, oracle); err != nil {
			t.Fatalf("before any observation: %v", err)
		}
		for i, o := range observedEvents(recs, anchorEpoch) {
			live.observe(o)
			oracle.observe(o)
			if err := alignersAgree(live, oracle); err != nil {
				t.Fatalf("after observation %d: %v", i, err)
			}
		}
	})
}

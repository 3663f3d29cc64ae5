package experiments

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/attack"
	"repro/internal/capture"
	"repro/internal/layers"
	"repro/internal/pcapio"
	"repro/internal/profiles"
	"repro/internal/script"
	"repro/internal/stats"
	"repro/internal/viewer"
	"repro/internal/wire"
)

// SoakResult summarizes the long-run harness: many back-to-back
// interactive sessions, each interleaved with noise flows, streamed
// through ONE rolling-window monitor as a continuous link tap.
type SoakResult struct {
	// Sessions is the number of consecutive interactive sessions fed.
	Sessions int
	// NoiseFlows is the concurrent bulk-streaming flows per session.
	NoiseFlows int
	// Decoded counts sessions whose windowed per-flow inference is
	// byte-identical (reflect.DeepEqual) to the one-shot InferPcap run on
	// the same capture in isolation — the batch-equivalence bar.
	Decoded int
	// DecisionsOK counts sessions where at least the decision vector
	// matched the one-shot baseline (a weaker bar than Decoded).
	DecisionsOK int
	// Finalized counts SessionFinalized events over the whole run.
	Finalized int
	// ExpiredByReason tallies FlowExpired events by reason.
	ExpiredByReason map[string]int
	// RetainedBySession samples Monitor.Stats().RetainedBytes after each
	// session's flows have closed — the figure that must stay flat in N.
	RetainedBySession []int64
	// HeapBySession samples runtime HeapAlloc (after GC) at the same
	// points; unlike RetainedBySession it includes harness overhead, so
	// flatness is asserted with slack.
	HeapBySession []uint64
	// PeakRetainedBytes is the max of RetainedBySession.
	PeakRetainedBytes int64
	// Sweeps and SweepTouched are the monitor's idle-sweep counters at the
	// end of the run: SweepTouched stays O(expired flows), not
	// O(flows × sweeps), now that expiry rides the timing wheel.
	Sweeps       int64
	SweepTouched int64
	// Events is the monitor's full ordered event stream, recorded so two
	// runs of the same soak can be checked byte-identical.
	Events []attack.Event
	Report string
}

// Soak is the bounded-memory proof for the rolling-window monitor: it
// streams `sessions` consecutive interactive sessions — each rendered as
// an interleaved capture with `noiseFlows` concurrent bulk flows and laid
// end to end on one capture timeline — through a single windowed Monitor
// frame by frame (FeedPacket), and checks that every session's
// SessionFinalized inference equals the one-shot InferPcap baseline for
// that capture while the monitor's retained memory stays O(window), not
// O(sessions).
func Soak(sessions, noiseFlows int, seed uint64) (*SoakResult, error) {
	if sessions <= 0 {
		sessions = 20
	}
	if noiseFlows < 0 {
		noiseFlows = 2
	}
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
	atk, err := attack.NewAttacker(training, g, script.BandersnatchMaxChoices)
	if err != nil {
		return nil, err
	}

	res := &SoakResult{
		Sessions: sessions, NoiseFlows: noiseFlows,
		ExpiredByReason: map[string]int{},
	}
	// The soak's per-flow inferences arrive through events; index them by
	// full flow key (each session's conversation has its own 5-tuple).
	finals := map[layers.FlowKey]*attack.Inference{}
	m := attack.NewMonitor(atk, attack.MonitorOptions{
		Window: &attack.Window{IdleTimeout: 60 * time.Second},
		OnEvent: func(ev attack.Event) {
			res.Events = append(res.Events, ev)
			switch e := ev.(type) {
			case attack.FlowDetected, attack.ChoiceInferred:
				// Counted via res.Events above; the soak only tallies
				// terminal outcomes per flow.
			case attack.SessionFinalized:
				res.Finalized++
				finals[e.Flow] = e.Inference
			case attack.FlowExpired:
				res.ExpiredByReason[e.Reason]++
			case attack.QUICFlowObserved:
				// Transport observation, not a terminal outcome.
			}
		},
	})

	pop := viewer.SamplePopulation(sessions, root.Stream(77))
	var cursor time.Duration // end of the tap timeline laid so far
	var timelineZero time.Time
	type expect struct {
		key      layers.FlowKey
		baseline *attack.Inference
	}
	expects := make([]expect, 0, sessions)
	for s := 0; s < sessions; s++ {
		tr, err := runOne(g, enc, pop[s], cond, seed+uint64(4000+s*59), nil)
		if err != nil {
			return nil, err
		}
		ep := capture.DefaultEndpoints()
		// Distinct client port per session: a fresh ephemeral socket, and
		// distinct noise 5-tuples derived from it.
		ep.ClientPort += uint16(s * 16)

		start := tr.ClientToServer.Writes[0].Time
		if timelineZero.IsZero() {
			timelineZero = start
		}
		offset := cursor - start.Sub(timelineZero)
		var buf bytes.Buffer
		if err := capture.WritePcapMulti(&buf, tr, capture.MultiOptions{
			Options: capture.Options{
				Seed: seed + uint64(s)*13, Endpoints: ep, TimeOffset: offset,
			},
			NoiseFlows: noiseFlows,
		}); err != nil {
			return nil, err
		}
		data := buf.Bytes()

		// One-shot baseline on the very same capture bytes.
		baseline, err := atk.InferPcap(data)
		if err != nil {
			return nil, err
		}
		expects = append(expects, expect{baseline: baseline, key: layers.FlowKey{
			SrcAddr: ep.ClientAddr, DstAddr: ep.ServerAddr,
			SrcPort: ep.ClientPort, DstPort: ep.ServerPort,
		}})

		// Stream the capture's packets through the shared monitor one
		// frame at a time, as a live capture loop would.
		pr, err := pcapio.NewBytesReader(data)
		if err != nil {
			return nil, err
		}
		var last time.Time
		for {
			rec, err := pr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, err
			}
			if err := m.FeedPacket(rec.Timestamp, rec.Data); err != nil {
				return nil, err
			}
			last = rec.Timestamp
		}
		// Advance the tap timeline: the next session starts shortly after
		// this one's last frame.
		cursor = last.Sub(timelineZero) + 2*time.Second

		// Sample the monitor's footprint with the capture dropped — the
		// series a bounded-memory monitor keeps flat.
		st := m.Stats()
		res.RetainedBySession = append(res.RetainedBySession, st.RetainedBytes)
		if st.RetainedBytes > res.PeakRetainedBytes {
			res.PeakRetainedBytes = st.RetainedBytes
		}
		data, buf = nil, bytes.Buffer{} // drop the capture before sampling the heap
		_ = data
		// Two GCs: one leaves the pooled buffers it drops from sync.Pool
		// in the pool's victim cache, and the second frees them, so the
		// sample does not depend on when the pool last turned over.
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		res.HeapBySession = append(res.HeapBySession, ms.HeapAlloc)
	}
	if _, err := m.Close(); err != nil {
		return nil, err
	}
	end := m.Stats()
	res.Sweeps, res.SweepTouched = end.Sweeps, end.SweepTouched

	for _, e := range expects {
		inf := finals[e.key]
		if inf == nil {
			continue
		}
		if reflect.DeepEqual(inf, e.baseline) {
			res.Decoded++
		}
		if reflect.DeepEqual(inf.Decisions, e.baseline.Decisions) {
			res.DecisionsOK++
		}
	}
	res.Report = renderSoak(res)
	return res, nil
}

func renderSoak(res *SoakResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Rolling-window soak: %d back-to-back sessions + %d noise flows each through ONE monitor\n",
		res.Sessions, res.NoiseFlows)
	fmt.Fprintf(&b, "(frames fed one at a time via FeedPacket; per-flow FIN/idle finalization)\n")
	rows := [][]string{
		{"sessions decoded byte-identical to one-shot InferPcap",
			fmt.Sprintf("%d/%d", res.Decoded, res.Sessions)},
		{"sessions with matching decision vector",
			fmt.Sprintf("%d/%d", res.DecisionsOK, res.Sessions)},
		{"SessionFinalized events", fmt.Sprintf("%d", res.Finalized)},
		{"peak retained", fmt.Sprintf("%.1f KiB", float64(res.PeakRetainedBytes)/1024)},
		{"idle sweeps / wheel entries touched", fmt.Sprintf("%d / %d", res.Sweeps, res.SweepTouched)},
	}
	if n := len(res.RetainedBySession); n > 0 {
		rows = append(rows, []string{"retained after first/last session",
			fmt.Sprintf("%.1f / %.1f KiB",
				float64(res.RetainedBySession[0])/1024,
				float64(res.RetainedBySession[n-1])/1024)})
	}
	if n := len(res.HeapBySession); n > 0 {
		rows = append(rows, []string{"heap after first/last session",
			fmt.Sprintf("%.1f / %.1f MiB",
				float64(res.HeapBySession[0])/(1<<20),
				float64(res.HeapBySession[n-1])/(1<<20))})
	}
	var reasons []string
	for r, n := range res.ExpiredByReason {
		reasons = append(reasons, fmt.Sprintf("%s:%d", r, n))
	}
	if len(reasons) > 0 {
		sort.Strings(reasons)
		rows = append(rows, []string{"flows expired", strings.Join(reasons, " ")})
	}
	b.WriteString(stats.RenderTable([]string{"metric", "value"}, rows))
	return b.String()
}

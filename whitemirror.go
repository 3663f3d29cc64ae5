// Package whitemirror is the public API of the White Mirror
// reproduction: a complete, self-contained implementation of the
// side-channel attack on interactive streaming described in "White
// Mirror: Leaking Sensitive Information from Interactive Netflix Movies
// using Encrypted Traffic Analysis" (Mitra et al., SIGCOMM 2019), plus
// every substrate it needs — a branching-narrative player and CDN, a TLS
// record-layer length model, network emulation, capture to genuine pcap
// files, the attack pipeline, prior-work baselines, countermeasures and
// the experiment harness.
//
// The typical flow is three calls:
//
//	tr, _ := whitemirror.Simulate(whitemirror.SessionOptions{Seed: 1})
//	pcapBytes, _ := whitemirror.CapturePcap(tr, 1)
//	atk, _ := whitemirror.TrainAttacker(whitemirror.TrainingOptions{Condition: tr.Condition})
//	inf, _ := atk.InferPcap(pcapBytes)
//
// after which inf.Decisions holds the recovered viewer choices and
// inf.Path the reconstructed walk through the film's script graph.
package whitemirror

import (
	"bytes"
	"fmt"
	"io"

	"repro/internal/attack"
	"repro/internal/capture"
	"repro/internal/dataset"
	"repro/internal/layers"
	"repro/internal/media"
	"repro/internal/parallel"
	"repro/internal/profiles"
	"repro/internal/script"
	"repro/internal/session"
	"repro/internal/viewer"
	"repro/internal/wire"
)

// Re-exported core types, so consumers rarely need internal import paths.
type (
	// Trace is one simulated session: both TLS byte streams plus labeled
	// ground truth.
	Trace = session.Trace
	// Condition is one Table-I operational condition.
	Condition = profiles.Condition
	// Viewer is one study participant with behavioural attributes.
	Viewer = viewer.Viewer
	// Attacker is the trained eavesdropper.
	Attacker = attack.Attacker
	// Inference is the attack output: decisions and reconstructed path.
	Inference = attack.Inference
	// Graph is a branching-narrative script.
	Graph = script.Graph
	// Dataset is a generated IITM-Bandersnatch-style study.
	Dataset = dataset.Dataset

	// Monitor is the streaming attack engine: feed packets or pcap chunks
	// as they arrive, receive typed events, and Close for the final
	// inference. Attacker.InferPcap is a thin wrapper over it.
	Monitor = attack.Monitor
	// MonitorOptions tunes a Monitor (event callback, rolling window).
	MonitorOptions = attack.MonitorOptions
	// MonitorWindow configures the rolling-window mode: bounded-memory
	// operation over an indefinite link tap, with per-flow FIN/RST/idle
	// finalization and noise-flow eviction.
	MonitorWindow = attack.Window
	// MonitorStats snapshots a monitor's flow table and retained memory.
	MonitorStats = attack.MonitorStats
	// MonitorEvent is a typed Monitor notification; the concrete types are
	// FlowDetected, ChoiceInferred, SessionFinalized, FlowExpired and
	// QUICFlowObserved.
	MonitorEvent = attack.Event
	// FlowDetected fires when a flow first produces an in-band report.
	FlowDetected = attack.FlowDetected
	// ChoiceInferred fires per in-band report with the running decode.
	ChoiceInferred = attack.ChoiceInferred
	// SessionFinalized fires with a flow's final inference, once per flow
	// that concludes as a session: at Close in both modes, and per flow
	// at FIN/RST/idle finalization in rolling-window mode. Close returns
	// the very *Inference the attacked flow's event carried.
	SessionFinalized = attack.SessionFinalized
	// FlowExpired fires when a flow concludes without finalizing as a
	// session: at Close in both modes, and on FIN/RST, idle or rejection
	// in rolling-window mode.
	FlowExpired = attack.FlowExpired
	// QUICFlowObserved fires once per UDP flow whose first datagram
	// carries a QUIC long header; the monitor tracks the flow by burst
	// features from then on.
	QUICFlowObserved = attack.QUICFlowObserved
	// FlowKey identifies one direction of a TCP or UDP conversation (as
	// carried by Monitor events).
	FlowKey = layers.FlowKey

	// Wire is the stack a simulated service speaks and the shaping
	// policy in force: TLS 1.2 over TCP (the zero value — the paper's
	// 2019 stack), TLS 1.3 with optional RFC 8446 record padding, or
	// QUIC v1 over UDP with a datagram sizing policy; either TLS stack
	// may instead pad, split or compress its state reports, the paper's
	// §VI countermeasures. Build one with ParseWire.
	Wire = session.Wire
)

// ParseWire parses a wire label — "tls1.2", "tls1.3+pad-to-64",
// "tls1.2+reports-pad-4096", "quic", "quic+pad-random-1350+2", the
// grammar DATASET.md spells out — into the Wire that SessionOptions and
// TrainingOptions carry.
func ParseWire(label string) (Wire, error) { return session.ParseWire(label) }

// NewMonitor returns a streaming monitor for a trained attacker. The
// monitor accepts pcap bytes in chunks of any size (Feed) or captured
// frames one at a time (FeedPacket), emits events through opts.OnEvent,
// and Close returns the Inference for the best candidate flow —
// byte-identical to Attacker.InferPcap for single-conversation captures —
// by one rule in both modes. Set opts.Window for the rolling-window
// link-tap regime: bounded memory over an indefinite feed, with flows
// finalizing individually on FIN/RST or idle.
func NewMonitor(a *Attacker, opts MonitorOptions) *Monitor {
	return attack.NewMonitor(a, opts)
}

// Named conditions from the paper's Figure 2.
var (
	// ConditionUbuntu is (Desktop, Firefox, Ethernet, Ubuntu).
	ConditionUbuntu = profiles.Fig2Ubuntu
	// ConditionWindows is (Desktop, Firefox, Ethernet, Windows).
	ConditionWindows = profiles.Fig2Windows
)

// Bandersnatch returns the case-study script graph (schematic, not the
// film's actual script).
func Bandersnatch() *Graph { return script.Bandersnatch() }

// Conditions enumerates the full Table-I operational grid.
func Conditions() []Condition { return profiles.Grid() }

// SessionOptions parameterizes Simulate.
type SessionOptions struct {
	// Seed drives everything deterministically; equal seeds reproduce
	// identical traces.
	Seed uint64
	// Condition defaults to ConditionUbuntu.
	Condition Condition
	// Viewer defaults to a seeded sample from the population model.
	Viewer *Viewer
	// Graph defaults to Bandersnatch().
	Graph *Graph
	// Encoding overrides the title encoding (defaults to the graph encoded
	// at the default ladder under a seed-derived encoding seed). Pass a
	// shared encoding when many sessions watch the same title so the film
	// is encoded once, not per session.
	Encoding *media.Encoding
	// DisablePrefetch turns off default-branch prefetching.
	DisablePrefetch bool
	// Lean skips materializing a QUIC session's server datagram bytes —
	// tens of megabytes of opaque media per session — while keeping the
	// trace's offsets, timings and datagram descriptors exact. Use it for
	// workloads that never render the trace to pcap (training, bulk
	// experiments); CapturePcap requires a non-lean QUIC trace. A TCP
	// session never materializes its server bytes (Trace.ServerRecords
	// describes them), so a lean TCP trace equals a full one.
	Lean bool
	// Wire is the stack the session speaks (default TLS 1.2 over TCP)
	// and the shaping policy in force.
	Wire Wire
}

// Simulate runs one end-to-end viewing session and returns its trace.
func Simulate(opts SessionOptions) (*Trace, error) {
	g := opts.Graph
	if g == nil {
		g = Bandersnatch()
	}
	var zero Condition
	cond := opts.Condition
	if cond == zero {
		cond = ConditionUbuntu
	}
	v := opts.Viewer
	if v == nil {
		pop := viewer.SamplePopulation(1, wire.NewRNG(opts.Seed^0xfeed))
		pop[0].ID = fmt.Sprintf("viewer-%d", opts.Seed)
		v = &pop[0]
	}
	enc := opts.Encoding
	if enc == nil {
		enc = media.EncodeCached(g, media.DefaultLadder, opts.Seed^0xabcd)
	}
	return session.Run(session.Config{
		Graph:             g,
		Encoding:          enc,
		Viewer:            *v,
		Condition:         cond,
		SessionID:         fmt.Sprintf("wm-%d", opts.Seed),
		Seed:              opts.Seed,
		DisablePrefetch:   opts.DisablePrefetch,
		OmitServerPayload: opts.Lean,
		Wire:              opts.Wire,
	})
}

// CapturePcap renders a trace as a libpcap capture in memory.
func CapturePcap(tr *Trace, seed uint64) ([]byte, error) {
	var buf bytes.Buffer
	if err := capture.WritePcap(&buf, tr, capture.Options{Seed: seed}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// WritePcap renders a trace as a libpcap capture to w.
func WritePcap(w io.Writer, tr *Trace, seed uint64) error {
	return capture.WritePcap(w, tr, capture.Options{Seed: seed})
}

// CapturePcapMulti renders the interleaved scenario in memory: the
// trace's conversation plus noiseFlows concurrent seeded bulk-streaming
// flows, all interleaved in time order — the traffic an on-path
// eavesdropper actually records on a shared link. Feed the result to a
// Monitor (or InferPcap) to exercise finding the interactive session
// among the noise.
func CapturePcapMulti(tr *Trace, seed uint64, noiseFlows int) ([]byte, error) {
	var buf bytes.Buffer
	err := capture.WritePcapMulti(&buf, tr, capture.MultiOptions{
		Options:    capture.Options{Seed: seed},
		NoiseFlows: noiseFlows,
	})
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// TrainingOptions parameterizes TrainAttacker.
type TrainingOptions struct {
	// Condition the attacker profiles (training is per condition, as in
	// the paper). Defaults to ConditionUbuntu.
	Condition Condition
	// Sessions is the number of profiling sessions (default 3; more are
	// drawn automatically if the sample lacks a report type).
	Sessions int
	// Seed drives the profiling sessions.
	Seed uint64
	// Graph defaults to Bandersnatch(); used for graph-constrained
	// decoding.
	Graph *Graph
	// Workers bounds the profiling fan-out (0 = the process default:
	// WM_WORKERS or GOMAXPROCS). The trained attacker is identical at any
	// worker count.
	Workers int
	// Wire is the stack the profiled service speaks and the shaping
	// policy in force; the attacker trains per wire exactly as it trains
	// per condition (every stack moves the bands). Under QUIC it learns
	// bands on labeled burst totals (summed datagram sizes per write)
	// instead of record lengths. The learned bands widen by the wire's
	// envelope — training examples only cover the pads that happened to
	// be drawn — and a policy that smears the report classes together
	// fails training with a "not separable" error rather than
	// misclassifying.
	Wire Wire
}

// TrainAttacker profiles the service under a condition and returns an
// attacker using the paper's interval-band classifier with
// graph-constrained decoding. The title is encoded once and shared across
// all profiling sessions (the attacker profiles one film), and the first
// batch of sessions runs across the worker pool; extra sessions are drawn
// only until both report types have been observed.
func TrainAttacker(opts TrainingOptions) (*Attacker, error) {
	g := opts.Graph
	if g == nil {
		g = Bandersnatch()
	}
	var zero Condition
	cond := opts.Condition
	if cond == zero {
		cond = ConditionUbuntu
	}
	n := opts.Sessions
	if n <= 0 {
		n = 3
	}
	enc := media.EncodeCached(g, media.DefaultLadder, opts.Seed^0xabcd)
	simulate := func(t int) (*Trace, error) {
		return Simulate(SessionOptions{
			Seed:      opts.Seed ^ (0x7ea1 + uint64(t)*2654435761),
			Condition: cond,
			Graph:     g,
			Encoding:  enc,
			// Profiling only consumes client-side record lengths; skip the
			// server media payload.
			Lean: true,
			Wire: opts.Wire,
		})
	}
	traces, err := parallel.MapN(opts.Workers, n, func(t int) (*Trace, error) {
		return simulate(t)
	})
	if err != nil {
		return nil, err
	}
	// The profiling sample must contain both report types; keep drawing
	// (bounded, sequential — the common case needs none) until it does.
	for t := n; t < n+8 && !attack.HasBothClasses(traces); t++ {
		tr, err := simulate(t)
		if err != nil {
			return nil, err
		}
		traces = append(traces, tr)
	}
	return attack.NewAttackerWithTrainer(attack.TrainerFor(opts.Wire), traces, g, script.BandersnatchMaxChoices)
}

// GenerateDataset builds an n-viewer synthetic IITM-Bandersnatch-style
// dataset spanning the Table-I attribute grid.
func GenerateDataset(n int, seed uint64) (*Dataset, error) {
	return dataset.Generate(dataset.Config{N: n, Seed: seed})
}

// DescribeChoices renders an inference against the graph's choice
// metadata: which question each decision answered and what the decision
// reveals, mirroring the paper's privacy discussion.
func DescribeChoices(g *Graph, inf *Inference) []string {
	p, err := g.Walk(inf.Decisions)
	if err != nil {
		return nil
	}
	var out []string
	for i, mc := range g.ChoicesAlong(p) {
		branch := mc.Choice.Default
		kind := "default"
		if !mc.TookDefault {
			branch = mc.Choice.Alternative
			kind = "non-default"
		}
		sens := ""
		if mc.Choice.Sensitive {
			sens = " [sensitive]"
		}
		out = append(out, fmt.Sprintf("Q%d %q -> %s (%s branch, reveals %s%s)",
			i+1, mc.Choice.Question, branch, kind, mc.Choice.Trait, sens))
	}
	return out
}

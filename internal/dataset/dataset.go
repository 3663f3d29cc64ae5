// Package dataset assembles the reproduction's analogue of the paper's
// IITM-Bandersnatch dataset: data points of the form {encrypted trace,
// ground-truth choices} for a population of viewers spanning the Table I
// operational and behavioural attributes.
//
// Generation is streaming-first: Stream hands points to a sink in index
// order while retaining only a bounded window of in-flight traces, so
// resident memory is constant in the corpus size; Generate is a thin
// accumulator over it for callers that want the whole corpus in memory.
// A deterministic shard protocol (Config.Shard) lets K processes split a
// corpus and MergeShards reassemble it byte-identically — every point's
// bytes depend only on (Config.Seed, point index), never on which shard
// produced it or how many workers ran. DATASET.md documents the on-disk
// corpus format, the manifest schema and the determinism guarantees.
package dataset

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/media"
	"repro/internal/netem"
	"repro/internal/parallel"
	"repro/internal/profiles"
	"repro/internal/script"
	"repro/internal/session"
	"repro/internal/stats"
	"repro/internal/viewer"
	"repro/internal/wire"
)

// Point is one dataset entry.
type Point struct {
	Index     int
	Viewer    viewer.Viewer
	Condition profiles.Condition
	Trace     *session.Trace
}

// Dataset is the generated study.
type Dataset struct {
	Points []Point
	Graph  *script.Graph
	// Config is the normalized configuration that generated the dataset;
	// WriteTo stamps it into the corpus manifest.
	Config Config
}

// Shard identifies one slice of the deterministic corpus partition:
// shard Index of Count owns every point whose global index i satisfies
// i % Count == Index. Point bytes are a pure function of (Seed, index),
// so the K shard outputs of a corpus are disjoint subsets of the
// single-process output and MergeShards reassembles them byte-identically
// (the shard-equivalence invariant; see DATASET.md).
type Shard struct {
	// Index is this shard's position, in [0, Count).
	Index int
	// Count is the total number of shards; zero or one means unsharded.
	Count int
}

// enabled reports whether the shard actually partitions the corpus.
func (s Shard) enabled() bool { return s.Count > 1 }

// owns reports whether this shard generates point i.
func (s Shard) owns(i int) bool { return !s.enabled() || i%s.Count == s.Index }

// String renders the shard as the CLI spells it — "index/count" — or ""
// when unsharded, which is also how the manifest records it.
func (s Shard) String() string {
	if !s.enabled() {
		return ""
	}
	return fmt.Sprintf("%d/%d", s.Index, s.Count)
}

// validate rejects out-of-range shard coordinates.
func (s Shard) validate() error {
	if s.Count <= 1 {
		if s.Count < 0 || s.Index != 0 {
			return fmt.Errorf("dataset: invalid shard %d/%d", s.Index, s.Count)
		}
		return nil
	}
	if s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("dataset: shard index %d out of range [0,%d)", s.Index, s.Count)
	}
	return nil
}

// ParseShard parses the CLI spelling "index/count" (e.g. "0/4").
func ParseShard(spec string) (Shard, error) {
	idx, cnt, ok := strings.Cut(spec, "/")
	if !ok {
		return Shard{}, fmt.Errorf("dataset: shard spec %q is not index/count", spec)
	}
	i, err := strconv.Atoi(idx)
	if err != nil {
		return Shard{}, fmt.Errorf("dataset: shard spec %q: bad index: %w", spec, err)
	}
	c, err := strconv.Atoi(cnt)
	if err != nil {
		return Shard{}, fmt.Errorf("dataset: shard spec %q: bad count: %w", spec, err)
	}
	if c < 1 {
		return Shard{}, fmt.Errorf("dataset: shard spec %q: count must be >= 1", spec)
	}
	s := Shard{Index: i, Count: c}
	if err := s.validate(); err != nil {
		return Shard{}, err
	}
	return s, nil
}

// Config controls generation.
type Config struct {
	// N is the number of viewers (the paper collected 100).
	N int
	// Seed drives the whole generation deterministically.
	Seed uint64
	// Graph defaults to the Bandersnatch case-study script.
	Graph *script.Graph
	// Encoding defaults to the graph encoded at the default ladder.
	Encoding *media.Encoding
	// Conditions defaults to the full Table I grid, assigned round-robin
	// with shuffling so every axis value appears.
	Conditions []profiles.Condition
	// Workers bounds the session fan-out (0 = the process default:
	// WM_WORKERS or GOMAXPROCS). Output is byte-identical at any count.
	Workers int
	// Wire is the stack every session speaks and the shaping policy in
	// force (zero: TLS 1.2 over TCP, the paper's 2019 stack). The
	// manifest records its label.
	Wire session.Wire
	// Shard restricts generation to one slice of the deterministic
	// partition: only points with index i where i % Shard.Count ==
	// Shard.Index are produced. The viewer population, condition
	// assignment and per-point seeds are computed for the full corpus in
	// every shard, so each point's bytes are identical at any shard
	// count. The zero value generates the full corpus.
	Shard Shard
	// Lean omits a QUIC trace's server datagram bytes
	// (session.Config.OmitServerPayload): datagram geometry, client bytes
	// and ground truth stay exact while the large server payloads are
	// never materialized. A TCP trace never materializes its server bytes
	// (Trace.ServerRecords describes them), so Lean changes nothing there.
	// Lean corpora feed size-only consumers — attackers, Table 1, decode
	// experiments; DatasetWriter refuses to persist them, since a QUIC
	// capture needs the server datagram bytes.
	Lean bool
}

// withDefaults resolves zero fields to the documented defaults, so every
// consumer (Stream, writers, manifests) agrees on the effective
// configuration.
func (cfg Config) withDefaults() Config {
	if cfg.N <= 0 {
		cfg.N = 100
	}
	if cfg.Graph == nil {
		cfg.Graph = script.Bandersnatch()
	}
	if cfg.Encoding == nil {
		cfg.Encoding = media.EncodeCached(cfg.Graph, media.DefaultLadder, cfg.Seed^0xabcd)
	}
	if len(cfg.Conditions) == 0 {
		cfg.Conditions = profiles.Grid()
	}
	return cfg
}

// Stream generates the corpus one point at a time, handing each owned
// point to sink in ascending index order. Only a bounded window of
// traces (O(Workers), via parallel.StreamN) is in flight at once, so
// resident memory is constant in N — the property that lets wmdataset
// write fleet-scale corpora. The sink must be done with the point's
// trace when it returns (call Trace.Release to drop the wire bytes);
// a sink error aborts generation.
func Stream(cfg Config, sink func(Point) error) error {
	return streamPoints(cfg, func(p Point) (Point, error) { return p, nil }, sink)
}

// streamPoints is the generation spine Stream and GenerateTo share. It
// simulates every point cfg's shard owns on the parallel.StreamN workers,
// passes each through work on the same worker, and hands work's results
// to emit in ascending index order. work runs concurrently and may touch
// only its own point; emit is never called concurrently. An error from
// either aborts generation, after emit has seen every lower index.
func streamPoints[R any](cfg Config, work func(Point) (R, error), emit func(R) error) error {
	cfg = cfg.withDefaults()
	if err := cfg.Shard.validate(); err != nil {
		return err
	}
	rng := wire.NewRNG(cfg.Seed)
	// Population and condition assignment are computed for the FULL
	// corpus in every shard — they are cheap, and doing so keeps point i
	// identical no matter which shard produces it.
	pop := viewer.SamplePopulation(cfg.N, rng.Fork(1))
	order := make([]int, cfg.N)
	for i := range order {
		order[i] = i % len(cfg.Conditions)
	}
	rng.Fork(2).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	var own []int
	for i := 0; i < cfg.N; i++ {
		if cfg.Shard.owns(i) {
			own = append(own, i)
		}
	}
	return parallel.StreamN(cfg.Workers, len(own), func(j int) (R, error) {
		i := own[j]
		cond := cfg.Conditions[order[i]]
		tr, err := session.Run(session.Config{
			Graph:             cfg.Graph,
			Encoding:          cfg.Encoding,
			Viewer:            pop[i],
			Condition:         cond,
			SessionID:         fmt.Sprintf("iitm-%03d", i+1),
			Seed:              cfg.Seed*1_000_003 + uint64(i),
			Wire:              cfg.Wire,
			OmitServerPayload: cfg.Lean,
		})
		if err != nil {
			var zero R
			return zero, fmt.Errorf("dataset: session %d: %w", i, err)
		}
		return work(Point{Index: i, Viewer: pop[i], Condition: cond, Trace: tr})
	}, func(_ int, r R) error {
		return emit(r)
	})
}

// Generate builds a dataset of N labeled sessions. Sessions are
// independent given their pre-assigned viewer, condition and seed, so
// they fan out across the worker pool; the result is byte-identical to a
// sequential run at any worker count. All N traces are held in memory —
// for large corpora, use Stream or GenerateTo instead.
func Generate(cfg Config) (*Dataset, error) {
	cfg = cfg.withDefaults()
	points := make([]Point, 0, cfg.N)
	if err := Stream(cfg, func(p Point) error {
		points = append(points, p)
		return nil
	}); err != nil {
		return nil, err
	}
	return &Dataset{Points: points, Graph: cfg.Graph, Config: cfg}, nil
}

// Metadata is the JSON sidecar persisted per point.
type Metadata struct {
	SessionID string `json:"sessionId"`
	Viewer    viewer.Viewer
	Condition conditionJSON `json:"condition"`
	Decisions []bool        `json:"decisions"`
	Segments  []string      `json:"segments"`
}

type conditionJSON struct {
	OS          string `json:"os"`
	Platform    string `json:"platform"`
	Browser     string `json:"browser"`
	Medium      string `json:"medium"`
	TrafficTime string `json:"trafficTime"`
}

// metadataOf builds a point's sidecar document from its trace.
func metadataOf(p Point) Metadata {
	meta := Metadata{
		SessionID: p.Trace.SessionID,
		Viewer:    p.Viewer,
		Condition: conditionJSON{
			OS:          string(p.Condition.OS),
			Platform:    string(p.Condition.Platform),
			Browser:     string(p.Condition.Browser),
			Medium:      string(p.Condition.Medium),
			TrafficTime: string(p.Condition.TrafficTime),
		},
		Decisions: p.Trace.GroundTruthDecisions(),
	}
	for _, s := range p.Trace.Result.Path.Segments {
		meta.Segments = append(meta.Segments, string(s))
	}
	return meta
}

// WriteTo persists the dataset under dir as NNN.pcap + NNN.json pairs
// plus a manifest.json (see DATASET.md). Traces are left intact; callers
// that stream should prefer GenerateTo, which also releases each trace.
func (ds *Dataset) WriteTo(dir string) error {
	w, err := NewDatasetWriter(dir, ds.Config)
	if err != nil {
		return err
	}
	w.CSV = false
	for _, p := range ds.Points {
		if err := w.Write(p); err != nil {
			return err
		}
	}
	return w.Close()
}

// ReadMetadata loads the sidecar files from a persisted dataset
// directory, skipping the corpus manifest.
func ReadMetadata(dir string) ([]Metadata, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	var out []Metadata
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".json" || e.Name() == ManifestName {
			continue
		}
		buf, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, fmt.Errorf("dataset: %w", err)
		}
		var m Metadata
		if err := json.Unmarshal(buf, &m); err != nil {
			return nil, fmt.Errorf("dataset: parsing %s: %w", e.Name(), err)
		}
		out = append(out, m)
	}
	return out, nil
}

// TableI renders the paper's Table I for this dataset: every attribute
// axis with the values present.
func (ds *Dataset) TableI() string {
	countCond := func(f func(profiles.Condition) string) map[string]int {
		m := map[string]int{}
		for _, p := range ds.Points {
			m[f(p.Condition)]++
		}
		return m
	}
	countView := func(f func(viewer.Viewer) string) map[string]int {
		m := map[string]int{}
		for _, p := range ds.Points {
			m[f(p.Viewer)]++
		}
		return m
	}
	rows := [][]string{}
	addRows := func(group, attr string, counts map[string]int, order []string) {
		for _, k := range order {
			rows = append(rows, []string{group, attr, k, fmt.Sprintf("%d", counts[k])})
		}
	}
	addRows("Operational", "Operating System",
		countCond(func(c profiles.Condition) string { return string(c.OS) }),
		[]string{"windows", "linux", "mac"})
	addRows("Operational", "Platform",
		countCond(func(c profiles.Condition) string { return string(c.Platform) }),
		[]string{"desktop", "laptop"})
	addRows("Operational", "Traffic Conditions",
		countCond(func(c profiles.Condition) string { return string(c.TrafficTime) }),
		[]string{string(netem.TrafficMorning), string(netem.TrafficNoon), string(netem.TrafficNight)})
	addRows("Operational", "Connection Type",
		countCond(func(c profiles.Condition) string { return string(c.Medium) }),
		[]string{string(netem.MediumWired), string(netem.MediumWireless)})
	addRows("Operational", "Browser",
		countCond(func(c profiles.Condition) string { return string(c.Browser) }),
		[]string{"chrome", "firefox"})
	addRows("Behavioral", "Age-group",
		countView(func(v viewer.Viewer) string { return string(v.Age) }),
		[]string{"<20", "20-25", "25-30", ">30"})
	addRows("Behavioral", "Gender",
		countView(func(v viewer.Viewer) string { return string(v.Gender) }),
		[]string{"male", "female", "undisclosed"})
	addRows("Behavioral", "Political Alignment",
		countView(func(v viewer.Viewer) string { return string(v.Politics) }),
		[]string{"liberal", "centrist", "communist", "undisclosed"})
	addRows("Behavioral", "State of Mind",
		countView(func(v viewer.Viewer) string { return string(v.Mind) }),
		[]string{"happy", "stressed", "sad", "undisclosed"})
	return stats.RenderTable([]string{"Conditions", "Attribute", "Value", "Viewers"}, rows)
}

// attributesHeader is the CSV schema behavioural-sciences consumers of
// the corpus ingest; DATASET.md documents it.
var attributesHeader = []string{"session", "os", "platform", "browser", "medium",
	"traffic", "age", "gender", "politics", "mind", "decisions"}

// attributesRow renders one point's CSV row from its sidecar document,
// so the streaming writer and MergeShards (which rebuilds the table from
// persisted sidecars) produce identical bytes.
func attributesRow(m Metadata) []string {
	dec := ""
	for _, d := range m.Decisions {
		if d {
			dec += "D"
		} else {
			dec += "A"
		}
	}
	return []string{
		m.SessionID,
		m.Condition.OS, m.Condition.Platform,
		m.Condition.Browser, m.Condition.Medium,
		m.Condition.TrafficTime,
		string(m.Viewer.Age), string(m.Viewer.Gender),
		string(m.Viewer.Politics), string(m.Viewer.Mind),
		dec,
	}
}

// WriteAttributesCSV emits the behavioural/operational attribute table as
// CSV, the form behavioural-sciences consumers of the paper's dataset
// would ingest.
func (ds *Dataset) WriteAttributesCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(attributesHeader); err != nil {
		return err
	}
	for _, p := range ds.Points {
		if err := cw.Write(attributesRow(metadataOf(p))); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

package dataset

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"

	"repro/internal/capture"
)

// Corpus format constants (see DATASET.md).
const (
	// ManifestName is the manifest's filename inside a corpus directory.
	ManifestName = "manifest.json"
	// ManifestFormat is the format tag every manifest carries; MergeShards
	// refuses to combine directories that disagree on it.
	ManifestFormat = "whitemirror-corpus/1"
	// AttributesName is the attribute-table filename inside a corpus
	// directory.
	AttributesName = "attributes.csv"
)

// Manifest is the corpus index persisted as manifest.json: the effective
// generation fingerprint plus one content-hashed entry per point. Shard
// manifests carry the same header (so MergeShards can check the shards
// belong together) and only their own points; the merged manifest is
// byte-identical to a single-process run's.
type Manifest struct {
	// Format is ManifestFormat.
	Format string `json:"format"`
	// N is the full corpus size, even in a shard manifest.
	N int `json:"n"`
	// Seed is the corpus seed.
	Seed uint64 `json:"seed"`
	// Graph is the script graph's title.
	Graph string `json:"graph"`
	// Wire is the corpus's wire label, Config.Wire's String form
	// (e.g. "tls1.2", "tls1.3+pad-to-256", "quic+pad-full-1252").
	Wire string `json:"wire"`
	// Shard is "index/count" for a shard directory, omitted for a full
	// corpus.
	Shard string `json:"shard,omitempty"`
	// Points lists the persisted points in ascending index order.
	Points []ManifestEntry `json:"points"`
}

// ManifestEntry records one persisted point and the content hashes that
// make shard merges verifiable.
type ManifestEntry struct {
	// Index is the point's global corpus index (0-based).
	Index int `json:"index"`
	// SessionID is the trace's session identifier.
	SessionID string `json:"sessionId"`
	// Pcap is the capture's filename relative to the corpus directory.
	Pcap string `json:"pcap"`
	// PcapSHA256 is the hex SHA-256 of the capture bytes.
	PcapSHA256 string `json:"pcapSha256"`
	// PcapBytes is the capture's size.
	PcapBytes int64 `json:"pcapBytes"`
	// Labels is the sidecar's filename relative to the corpus directory.
	Labels string `json:"labels"`
	// LabelsSHA256 is the hex SHA-256 of the sidecar bytes.
	LabelsSHA256 string `json:"labelsSha256"`
	// LabelsBytes is the sidecar's size.
	LabelsBytes int64 `json:"labelsBytes"`
}

// ReadManifest loads a corpus directory's manifest.json.
func ReadManifest(dir string) (*Manifest, error) {
	buf, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(buf, &m); err != nil {
		return nil, fmt.Errorf("dataset: parsing %s: %w", filepath.Join(dir, ManifestName), err)
	}
	if m.Format != ManifestFormat {
		return nil, fmt.Errorf("dataset: %s: unsupported format %q (want %q)",
			dir, m.Format, ManifestFormat)
	}
	return &m, nil
}

// writeManifest persists m under dir.
func writeManifest(dir string, m *Manifest) error {
	buf, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(filepath.Join(dir, ManifestName), buf, 0o644); err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	return nil
}

// nameWidth returns the zero-padded filename width for an N-point
// corpus: at least 3 digits (the historical layout) and enough for N so
// lexical directory order equals index order at any size.
func nameWidth(n int) int {
	if w := len(strconv.Itoa(n)); w > 3 {
		return w
	}
	return 3
}

// pointStem is the shared stem of point i's two filenames, NNN.pcap and
// NNN.json: its 1-based index zero-padded to width.
func pointStem(width, i int) string { return fmt.Sprintf("%0*d", width, i+1) }

// DatasetWriter streams a corpus to disk one point at a time: each Write
// persists the point's capture and label sidecar and appends its
// content-hashed manifest entry, so nothing but the manifest (a few
// hundred bytes per point) accumulates in memory. Close flushes the
// manifest and, when CSV is set, the attribute table. Writers are not
// safe for concurrent use; feed one from a Stream sink.
type DatasetWriter struct {
	// CSV controls whether Close writes attributes.csv. NewDatasetWriter
	// defaults it to true for full-corpus writers and false for shard
	// writers: the merged corpus rebuilds the table from sidecars, and a
	// per-shard fragment would not be the documented file.
	CSV bool

	dir    string
	cfg    Config
	width  int
	man    Manifest
	csvBuf bytes.Buffer
	csvW   *csv.Writer
	closed bool
}

// NewDatasetWriter creates dir (if needed) and returns a writer that
// lays out the corpus format documented in DATASET.md. cfg must be the
// generation config — the writer normalizes it and stamps the manifest
// header from it. Lean configs are rejected: a capture is made of the
// bytes Lean drops.
func NewDatasetWriter(dir string, cfg Config) (*DatasetWriter, error) {
	cfg = cfg.withDefaults()
	if cfg.Lean {
		return nil, fmt.Errorf("dataset: cannot persist a lean corpus (Config.Lean drops the payload bytes captures are made of)")
	}
	if err := cfg.Shard.validate(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	w := &DatasetWriter{
		CSV:   !cfg.Shard.enabled(),
		dir:   dir,
		cfg:   cfg,
		width: nameWidth(cfg.N),
		man: Manifest{
			Format: ManifestFormat,
			N:      cfg.N,
			Seed:   cfg.Seed,
			Graph:  cfg.Graph.Title,
			Wire:   cfg.Wire.String(),
			Shard:  cfg.Shard.String(),
		},
	}
	w.csvW = csv.NewWriter(&w.csvBuf)
	if err := w.csvW.Write(attributesHeader); err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	return w, nil
}

// Write persists one point as NNN.pcap + NNN.json and appends its
// manifest entry. The point's trace must still hold its wire bytes; the
// caller remains responsible for releasing it afterwards. A failed Write
// leaves no NNN.pcap.part behind.
func (w *DatasetWriter) Write(p Point) error {
	if w.closed {
		return fmt.Errorf("dataset: write to closed writer")
	}
	e, err := w.encode(p)
	if err != nil {
		return err
	}
	if err := w.put(e); err != nil {
		os.Remove(e.part)
		return err
	}
	return nil
}

// encodedPoint is one point ready to persist: its capture, already on
// disk under a temporary name, plus the sidecar bytes, the manifest entry
// and the attribute-table row that describe them.
type encodedPoint struct {
	point  Point
	part   string // the capture's path until put renames it into place
	labels []byte
	entry  ManifestEntry
	row    []string
}

// captureBufSize is the render buffer each capture streams through on
// its way to the file and the hash: large enough that a 7 MB capture
// takes a few dozen write calls, small enough to stay in cache between
// the file write and the hash.
const captureBufSize = 256 << 10

// encode writes p's capture to NNN.pcap.part, hashing it as it goes,
// marshals and hashes its sidecar, and builds the point's manifest entry
// and CSV row. It reads nothing of the writer but its directory and
// fixed filename width, so GenerateTo runs it on the StreamN workers,
// concurrently with put.
func (w *DatasetWriter) encode(p Point) (encodedPoint, error) {
	if p.Trace == nil {
		return encodedPoint{}, fmt.Errorf("dataset: point %d has no trace", p.Index)
	}
	// A server direction is its bytes, or else its records, as capture
	// renders it: a TCP trace has only records and a QUIC trace only
	// datagram bytes. Release drops both, and a lean trace has no bytes
	// in either direction.
	tr := p.Trace
	if len(tr.ClientToServer.Bytes) == 0 || (len(tr.ServerToClient.Bytes) == 0 && len(tr.ServerRecords) == 0) {
		return encodedPoint{}, fmt.Errorf("dataset: point %d trace holds no payload (generated with Config.Lean, or already Released)", p.Index)
	}
	meta := metadataOf(p)
	labels, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return encodedPoint{}, fmt.Errorf("dataset: %w", err)
	}
	labelsSum := sha256.Sum256(labels)
	name := pointStem(w.width, p.Index)
	part := filepath.Join(w.dir, name+".pcap.part")
	pcapSum, pcapBytes, err := writeCapture(part, p)
	if err != nil {
		return encodedPoint{}, fmt.Errorf("dataset: writing %s.pcap: %w", name, err)
	}
	return encodedPoint{
		point:  p,
		part:   part,
		labels: labels,
		entry: ManifestEntry{
			Index:        p.Index,
			SessionID:    meta.SessionID,
			Pcap:         name + ".pcap",
			PcapSHA256:   hex.EncodeToString(pcapSum),
			PcapBytes:    pcapBytes,
			Labels:       name + ".json",
			LabelsSHA256: hex.EncodeToString(labelsSum[:]),
			LabelsBytes:  int64(len(labels)),
		},
		row: attributesRow(meta),
	}, nil
}

// idleCaptureBufs keeps writeCapture's captureBufSize buffers between
// points, one per CPU (as many as points can be written at once; see
// capture's idleMuxers for why not a sync.Pool), instead of allocating
// one per point.
var idleCaptureBufs = make(chan *bufio.Writer, runtime.GOMAXPROCS(0))

// writeCapture renders p's capture into a new file at path and returns
// the capture's SHA-256 and size. The render goes through a fixed-size
// buffer whose every flush feeds both the file and the hash, so no
// whole capture is ever held in memory. On failure, a panic included,
// the file is removed.
func writeCapture(path string, p Point) (sum []byte, size int64, err error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, 0, err
	}
	done := false
	defer func() {
		if !done {
			f.Close()
			os.Remove(path)
		}
	}()
	h := sha256.New()
	var bw *bufio.Writer
	select {
	case bw = <-idleCaptureBufs:
		bw.Reset(io.MultiWriter(f, h))
	default:
		bw = bufio.NewWriterSize(io.MultiWriter(f, h), captureBufSize)
	}
	defer func() {
		bw.Reset(nil) // an idle buffer holds no file or hash
		select {
		case idleCaptureBufs <- bw:
		default:
		}
	}()
	if err := capture.WritePcap(bw, p.Trace, capture.Options{Seed: uint64(p.Index)}); err != nil {
		return nil, 0, err
	}
	if err := bw.Flush(); err != nil {
		return nil, 0, err
	}
	if size, err = f.Seek(0, io.SeekCurrent); err != nil {
		return nil, 0, err
	}
	if err := f.Close(); err != nil {
		return nil, 0, err
	}
	done = true
	return h.Sum(nil), size, nil
}

// put renames an encoded point's capture into place, writes its sidecar
// and appends its manifest entry and, when CSV is set, its attribute
// row. Points must arrive in ascending index order.
func (w *DatasetWriter) put(e encodedPoint) error {
	if err := os.Rename(e.part, filepath.Join(w.dir, e.entry.Pcap)); err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	if err := os.WriteFile(filepath.Join(w.dir, e.entry.Labels), e.labels, 0o644); err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	w.man.Points = append(w.man.Points, e.entry)
	if w.CSV {
		if err := w.csvW.Write(e.row); err != nil {
			return fmt.Errorf("dataset: %w", err)
		}
	}
	return nil
}

// Close flushes the manifest (and the attribute table when CSV is set).
// The writer is unusable afterwards.
func (w *DatasetWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if err := writeManifest(w.dir, &w.man); err != nil {
		return err
	}
	if w.CSV {
		w.csvW.Flush()
		if err := w.csvW.Error(); err != nil {
			return fmt.Errorf("dataset: %w", err)
		}
		if err := os.WriteFile(filepath.Join(w.dir, AttributesName), w.csvBuf.Bytes(), 0o644); err != nil {
			return fmt.Errorf("dataset: %w", err)
		}
	}
	return nil
}

// Manifest returns the entries written so far; it is complete once Close
// has run.
func (w *DatasetWriter) Manifest() *Manifest { return &w.man }

// GenerateTo streams a corpus straight to disk. The StreamN workers
// simulate each point, encode it (render the capture through SHA-256
// into NNN.pcap.part, marshal and hash the sidecar) and release its
// trace; the in-order emit renames the capture into place, writes the
// sidecar and appends the manifest entry and CSV row. So encoding uses
// every worker, and resident memory is bounded by the in-flight window
// of manifest entries and sidecars, constant in cfg.N
// (TestGenerateToConstantMemory pins this). Because only the emit
// renames, and a failed run (encode error, emit error or panic) removes
// the .part files it wrote, a failed run leaves no manifest and no point
// above the failing index. The returned points carry viewer, condition
// and the released trace — enough for TableI — and the manifest
// describes what was written. writeCSV controls attributes.csv for
// full-corpus runs; shard runs never write it (MergeShards rebuilds it).
func GenerateTo(cfg Config, dir string, writeCSV bool) (*Manifest, []Point, error) {
	cfg = cfg.withDefaults()
	w, err := NewDatasetWriter(dir, cfg)
	if err != nil {
		return nil, nil, err
	}
	w.CSV = writeCSV && !cfg.Shard.enabled()
	var (
		mu    sync.Mutex
		parts = map[string]bool{} // written by a worker, not yet renamed
	)
	defer func() {
		// StreamN returns, or re-raises a worker's panic, only once every
		// worker is done, so no .part file can appear after this runs.
		// After a clean run the set is empty.
		for part := range parts {
			os.Remove(part)
		}
	}()
	var points []Point
	err = streamPoints(cfg, func(p Point) (encodedPoint, error) {
		e, err := w.encode(p)
		p.Trace.Release()
		if err == nil {
			mu.Lock()
			parts[e.part] = true
			mu.Unlock()
		}
		return e, err
	}, func(e encodedPoint) error {
		if err := w.put(e); err != nil {
			return err
		}
		mu.Lock()
		delete(parts, e.part)
		mu.Unlock()
		points = append(points, e.point)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if err := w.Close(); err != nil {
		return nil, nil, err
	}
	return w.Manifest(), points, nil
}

package dataset

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// MergeShards reassembles shard directories into a full corpus at out,
// byte-identical to a single-process run of the same Config (the
// shard-equivalence invariant; TestShardEquivalence_Dataset pins it).
// It validates that every shard carries the same generation fingerprint,
// that the shards cover each point index exactly once, that every entry
// names exactly the files the writer gives its index (so a manifest
// cannot make the merge read or write outside the directories), and
// that every copied file matches its manifest hash; one point is
// resident at a time. When writeCSV is set, attributes.csv is rebuilt
// from the label sidecars — identical to what the unsharded writer
// emits. The merged manifest is returned and persisted with the shard
// marker cleared.
func MergeShards(out string, writeCSV bool, shardDirs ...string) (*Manifest, error) {
	if len(shardDirs) == 0 {
		return nil, fmt.Errorf("dataset: merge: no shard directories")
	}
	type located struct {
		entry ManifestEntry
		dir   string
	}
	var header Manifest
	byIndex := map[int]located{}
	for _, dir := range shardDirs {
		m, err := ReadManifest(dir)
		if err != nil {
			return nil, err
		}
		if header.Format == "" {
			header = Manifest{Format: m.Format, N: m.N, Seed: m.Seed, Graph: m.Graph, Wire: m.Wire}
		} else if m.N != header.N || m.Seed != header.Seed ||
			m.Graph != header.Graph || m.Wire != header.Wire {
			return nil, fmt.Errorf("dataset: merge: %s was generated under a different configuration (n=%d seed=%d graph=%q wire=%q, want n=%d seed=%d graph=%q wire=%q)",
				dir, m.N, m.Seed, m.Graph, m.Wire, header.N, header.Seed, header.Graph, header.Wire)
		}
		for _, e := range m.Points {
			if e.Index < 0 || e.Index >= header.N {
				return nil, fmt.Errorf("dataset: merge: %s lists point %d outside [0,%d)", dir, e.Index, header.N)
			}
			if stem := pointStem(nameWidth(header.N), e.Index); e.Pcap != stem+".pcap" || e.Labels != stem+".json" {
				return nil, fmt.Errorf("dataset: merge: %s lists point %d as %q and %q, want %q and %q",
					dir, e.Index, e.Pcap, e.Labels, stem+".pcap", stem+".json")
			}
			if prev, dup := byIndex[e.Index]; dup {
				return nil, fmt.Errorf("dataset: merge: point %d appears in both %s and %s", e.Index, prev.dir, dir)
			}
			byIndex[e.Index] = located{entry: e, dir: dir}
		}
	}
	if len(byIndex) != header.N {
		for i := 0; i < header.N; i++ {
			if _, ok := byIndex[i]; !ok {
				return nil, fmt.Errorf("dataset: merge: shards cover %d of %d points; point %d is missing",
					len(byIndex), header.N, i)
			}
		}
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	var csvBuf bytes.Buffer
	csvW := csv.NewWriter(&csvBuf)
	if writeCSV {
		if err := csvW.Write(attributesHeader); err != nil {
			return nil, fmt.Errorf("dataset: %w", err)
		}
	}
	for i := 0; i < header.N; i++ {
		loc := byIndex[i]
		e := loc.entry
		if err := copyVerified(loc.dir, out, e.Pcap, e.PcapSHA256, e.PcapBytes); err != nil {
			return nil, err
		}
		labels, err := copyVerifiedBytes(loc.dir, out, e.Labels, e.LabelsSHA256, e.LabelsBytes)
		if err != nil {
			return nil, err
		}
		if writeCSV {
			var m Metadata
			if err := json.Unmarshal(labels, &m); err != nil {
				return nil, fmt.Errorf("dataset: merge: parsing %s: %w", filepath.Join(loc.dir, e.Labels), err)
			}
			if err := csvW.Write(attributesRow(m)); err != nil {
				return nil, fmt.Errorf("dataset: %w", err)
			}
		}
		header.Points = append(header.Points, e)
	}
	if err := writeManifest(out, &header); err != nil {
		return nil, err
	}
	if writeCSV {
		csvW.Flush()
		if err := csvW.Error(); err != nil {
			return nil, fmt.Errorf("dataset: %w", err)
		}
		if err := os.WriteFile(filepath.Join(out, AttributesName), csvBuf.Bytes(), 0o644); err != nil {
			return nil, fmt.Errorf("dataset: %w", err)
		}
	}
	return &header, nil
}

// copyVerifiedBytes copies name from src to dst, checking the bytes
// against the manifest's hash and size, and returns the file contents.
func copyVerifiedBytes(src, dst, name, wantSHA string, wantBytes int64) ([]byte, error) {
	buf, err := os.ReadFile(filepath.Join(src, name))
	if err != nil {
		return nil, fmt.Errorf("dataset: merge: %w", err)
	}
	if int64(len(buf)) != wantBytes {
		return nil, fmt.Errorf("dataset: merge: %s is %d bytes, manifest says %d",
			filepath.Join(src, name), len(buf), wantBytes)
	}
	sum := sha256.Sum256(buf)
	if got := hex.EncodeToString(sum[:]); got != wantSHA {
		return nil, fmt.Errorf("dataset: merge: %s hash %s does not match manifest %s",
			filepath.Join(src, name), got, wantSHA)
	}
	if err := os.WriteFile(filepath.Join(dst, name), buf, 0o644); err != nil {
		return nil, fmt.Errorf("dataset: merge: %w", err)
	}
	return buf, nil
}

// copyVerified is copyVerifiedBytes for callers that discard the bytes.
func copyVerified(src, dst, name, wantSHA string, wantBytes int64) error {
	_, err := copyVerifiedBytes(src, dst, name, wantSHA, wantBytes)
	return err
}

package dataset

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/session"
)

// TestCorpusPointBytesPinned pins the bytes of single corpus points
// across revisions: the determinism and shard suites compare two runs of
// one build, so only fixed digests catch a change that shifts every run
// alike. Each point is generated alone through Shard{Index: 0, Count: n},
// whose bytes equal the same point of a full run (the shard-equivalence
// invariant). A deliberate change to the synthesis updates these values
// on purpose.
func TestCorpusPointBytesPinned(t *testing.T) {
	type file struct {
		sha  string
		size int64
	}
	cases := []struct {
		name   string
		n      int
		seed   uint64
		wire   string
		pcap   file
		labels *file // nil: not pinned
	}{
		{
			// The DATASET.md example corpus.
			name: "tls1.2", n: 12, seed: 5, wire: "tls1.2",
			pcap:   file{"e747dc92501436a291a89bfaeb373a589fb5878dc9f4014048d9664570c4a716", 7_078_613},
			labels: &file{"ccba746a6ad81821cc74967009f24099b2ddcba4d4dad9a2428fb014e6bd3f73", 496},
		},
		{
			name: "quic+pad-full-1350", n: 4, seed: 1, wire: "quic+pad-full-1350",
			pcap: file{"ecb2c22d87d5f09ec00d3c24f99a959ef74fe386275c5c92cfb076388dede519", 6_788_612},
		},
		{
			name: "tls1.3+pad-to-64", n: 4, seed: 1, wire: "tls1.3+pad-to-64",
			pcap: file{"429ece53a203f9999f779f71b3375ea16ad60bd0772dba438e572a00f7149bee", 6_629_395},
		},
	}
	check := func(t *testing.T, path string, want file) {
		t.Helper()
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf)
		if got := hex.EncodeToString(sum[:]); got != want.sha || int64(len(buf)) != want.size {
			t.Errorf("%s: sha256 %s, %d bytes; pinned %s, %d bytes",
				filepath.Base(path), got, len(buf), want.sha, want.size)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, err := session.ParseWire(tc.wire)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			cfg := Config{N: tc.n, Seed: tc.seed, Wire: w, Shard: Shard{Index: 0, Count: tc.n}}
			man, _, err := GenerateTo(cfg, dir, false)
			if err != nil {
				t.Fatal(err)
			}
			if len(man.Points) != 1 || man.Points[0].Index != 0 {
				t.Fatalf("shard 0/%d wrote %+v, want point 0 alone", tc.n, man.Points)
			}
			check(t, filepath.Join(dir, man.Points[0].Pcap), tc.pcap)
			if tc.labels != nil {
				check(t, filepath.Join(dir, man.Points[0].Labels), *tc.labels)
			}
		})
	}
}

package whitemirror

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestRenderBytesPinned pins the facade's capture renders across
// revisions: single-flow and interleaved multi-flow, over TLS 1.2, QUIC
// and padded TLS 1.3. The determinism tests compare two runs of one
// build, so only fixed digests catch a render change that shifts every
// run alike. Every render simulates seed 21 and captures with seed 21. A
// deliberate change to the synthesis updates these values on purpose.
func TestRenderBytesPinned(t *testing.T) {
	cases := []struct {
		name   string
		wire   string // "" is the default TLS 1.2 stack
		noise  int    // -1 renders through CapturePcap
		sha    string
		length int
	}{
		{"single", "", -1, "95d88978b37763220ddc8fe80e6c8d23b0a591ee0d6847f43ab787dc7a49010d", 6_856_954},
		{"multi-6", "", 6, "a73b2e2feda12a095198797baa9329ba82d469dc9e5bb10d4e80ec9e60216fc4", 21_691_609},
		{"quic-multi-2", "quic", 2, "8a6f8d0d7b35811c4ca2143e0fa888c4ccf3eb15d437c4f8f75b69276cdede7b", 11_898_526},
		{"tls1.3+pad-to-64-multi-2", "tls1.3+pad-to-64", 2, "0029060a2fa0d13fa3524d0b14da63eebb6675ebb3c725050d2744574a86851e", 11_849_961},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := SessionOptions{Seed: 21}
			if tc.wire != "" {
				w, err := ParseWire(tc.wire)
				if err != nil {
					t.Fatal(err)
				}
				opts.Wire = w
			}
			tr, err := Simulate(opts)
			if err != nil {
				t.Fatal(err)
			}
			var pcap []byte
			if tc.noise < 0 {
				pcap, err = CapturePcap(tr, 21)
			} else {
				pcap, err = CapturePcapMulti(tr, 21, tc.noise)
			}
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(pcap)
			if got := hex.EncodeToString(sum[:]); got != tc.sha || len(pcap) != tc.length {
				t.Errorf("sha256 %s, %d bytes; pinned %s, %d bytes", got, len(pcap), tc.sha, tc.length)
			}
		})
	}
}

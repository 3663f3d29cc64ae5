// Command wmsession simulates one interactive viewing session and writes
// its encrypted capture as a pcap file plus a ground-truth JSON sidecar.
//
// Usage:
//
//	wmsession -out session.pcap -seed 42 -os linux -browser firefox
//	wmsession -out s13.pcap -wire tls1.3+pad-to-64   # modern record layer
//	wmsession -out h3.pcap -wire quic+pad-full-1350  # HTTP/3 over UDP
//	wmsession -out cm.pcap -wire tls1.2+reports-pad-4096  # §VI countermeasure
//
// The resulting pcap is a standard libpcap file (open it in Wireshark);
// the sidecar records the viewer's actual choices for later scoring.
// -wire names the stack and the shaping policy in force, in the grammar
// DATASET.md spells out: tls1.2 (the default), tls1.3 with an optional
// RFC 8446 record-padding policy (+pad-to-N, +pad-random-N), or quic —
// QUIC v1 over UDP, record boundaries sealed inside 1-RTT packets — with
// an optional datagram sizing policy (+fixed-N, +pad-full-N,
// +pad-random-N+K). Instead of record padding, either TLS stack may shape
// its state reports, the paper's §VI countermeasures (+reports-pad-N,
// +reports-split-N, +reports-compress-P).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/capture"
	"repro/internal/media"
	"repro/internal/netem"
	"repro/internal/profiles"
	"repro/internal/script"
	"repro/internal/session"
	"repro/internal/viewer"
	"repro/internal/wire"
)

func main() {
	var (
		out        = flag.String("out", "session.pcap", "output pcap path")
		seed       = flag.Uint64("seed", 1, "deterministic seed")
		osName     = flag.String("os", "linux", "operating system: windows|linux|mac")
		platform   = flag.String("platform", "desktop", "platform: desktop|laptop")
		browser    = flag.String("browser", "firefox", "browser: chrome|firefox")
		medium     = flag.String("medium", "wired", "connection: wired|wireless")
		traffic    = flag.String("traffic", "morning", "traffic time: morning|noon|night")
		noPrefetch = flag.Bool("no-prefetch", false, "disable default-branch prefetching")
		wireSpec   = flag.String("wire", "tls1.2", "wire stack and shaping policy: tls1.2[+R] | tls1.3[+pad-to-N|+pad-random-N|+R] | quic[+fixed-N|+pad-full-N|+pad-random-N+K], R = reports-pad-N|reports-split-N|reports-compress-P")
		noise      = flag.Int("noise", 0, "interleave this many concurrent bulk-streaming noise flows (they speak the session's transport)")
	)
	flag.Parse()
	w, err := session.ParseWire(*wireSpec)
	if err != nil {
		fatal(err)
	}

	cond := profiles.Condition{
		OS:          profiles.OS(*osName),
		Platform:    profiles.Platform(*platform),
		Browser:     profiles.Browser(*browser),
		Medium:      netem.Medium(*medium),
		TrafficTime: netem.TrafficTime(*traffic),
	}
	g := script.Bandersnatch()
	enc := media.Encode(g, media.DefaultLadder, *seed^0xabcd)
	pop := viewer.SamplePopulation(1, wire.NewRNG(*seed^0xfeed))

	tr, err := session.Run(session.Config{
		Graph: g, Encoding: enc, Viewer: pop[0], Condition: cond,
		SessionID:       fmt.Sprintf("wmsession-%d", *seed),
		Seed:            *seed,
		DisablePrefetch: *noPrefetch,
		Wire:            w,
	})
	if err != nil {
		fatal(err)
	}

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	// The pcap writer makes a few small writes per frame (record header,
	// frame headers, payload); buffer them rather than pay a system call
	// each.
	bw := bufio.NewWriter(f)
	if *noise > 0 {
		err = capture.WritePcapMulti(bw, tr, capture.MultiOptions{
			Options:    capture.Options{Seed: *seed},
			NoiseFlows: *noise,
		})
	} else {
		err = capture.WritePcap(bw, tr, capture.Options{Seed: *seed})
	}
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}

	truth := struct {
		SessionID string   `json:"sessionId"`
		Condition string   `json:"condition"`
		Viewer    string   `json:"viewer"`
		Decisions []bool   `json:"decisions"`
		Segments  []string `json:"segments"`
	}{
		SessionID: tr.SessionID,
		Condition: cond.String(),
		Viewer:    tr.Viewer.ID,
	}
	truth.Decisions = tr.GroundTruthDecisions()
	for _, s := range tr.Result.Path.Segments {
		truth.Segments = append(truth.Segments, string(s))
	}
	buf, err := json.MarshalIndent(truth, "", "  ")
	if err != nil {
		fatal(err)
	}
	sidecar := *out + ".truth.json"
	if err := os.WriteFile(sidecar, buf, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%d client writes, %d choices) and %s\n",
		*out, len(tr.ClientWrites), len(tr.Result.Choices), sidecar)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wmsession:", err)
	os.Exit(1)
}

package session

import (
	"strings"
	"testing"

	"repro/internal/media"
	"repro/internal/profiles"
	"repro/internal/quicrec"
	"repro/internal/script"
	"repro/internal/tlsrec"
	"repro/internal/viewer"
	"repro/internal/wire"
)

// TestParseWireRoundTrip: every label the shaping sweep's default cells
// and DATASET.md spell parses to the expected Wire and renders back to
// itself.
func TestParseWireRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		label string
		want  Wire
	}{
		{"tls1.2", Wire{}},
		{"tls1.3", Wire{Record: tlsrec.RecordTLS13}},
		{"tls1.3+pad-to-64", Wire{Record: tlsrec.RecordTLS13, Padding: tlsrec.PadToMultipleOf(64)}},
		{"tls1.3+pad-to-256", Wire{Record: tlsrec.RecordTLS13, Padding: tlsrec.PadToMultipleOf(256)}},
		{"tls1.3+pad-random-128", Wire{Record: tlsrec.RecordTLS13, Padding: tlsrec.PadRandomUpTo(128)}},
		{"tls1.3+pad-random-512", Wire{Record: tlsrec.RecordTLS13, Padding: tlsrec.PadRandomUpTo(512)}},
		{"tls1.3+pad-to-4096", Wire{Record: tlsrec.RecordTLS13, Padding: tlsrec.PadToMultipleOf(4096)}},
		{"tls1.3+pad-to-16384", Wire{Record: tlsrec.RecordTLS13, Padding: tlsrec.PadToMultipleOf(maxPadding)}},
		{"tls1.3+pad-random-16384", Wire{Record: tlsrec.RecordTLS13, Padding: tlsrec.PadRandomUpTo(maxPadding)}},
		{"quic+default-1350", Wire{Transport: quicrec.TransportQUIC}},
		{"quic+fixed-1200", Wire{Transport: quicrec.TransportQUIC, Sizing: quicrec.Fixed(1200)}},
		{"quic+pad-full-1350", Wire{Transport: quicrec.TransportQUIC, Sizing: quicrec.PadFull(1350)}},
		{"quic+pad-full-1252", Wire{Transport: quicrec.TransportQUIC, Sizing: quicrec.PadFull(1252)}},
		{"quic+pad-random-1350+2", Wire{Transport: quicrec.TransportQUIC, Sizing: quicrec.PadRandom(1350, 2)}},
		{"quic+fixed-65527", Wire{Transport: quicrec.TransportQUIC, Sizing: quicrec.Fixed(maxDatagram)}},
		{"quic+pad-random-65527+16", Wire{Transport: quicrec.TransportQUIC,
			Sizing: quicrec.PadRandom(maxDatagram, maxDummies)}},
		{"tls1.2+reports-pad-4096", Wire{Reports: ReportPolicy{Mode: ReportsPad, Param: 4096}}},
		{"tls1.2+reports-split-1200", Wire{Reports: ReportPolicy{Mode: ReportsSplit, Param: 1200}}},
		{"tls1.2+reports-compress-55", Wire{Reports: ReportPolicy{Mode: ReportsCompress, Param: 55}}},
		{"tls1.3+reports-split-1200", Wire{Record: tlsrec.RecordTLS13,
			Reports: ReportPolicy{Mode: ReportsSplit, Param: 1200}}},
		{"tls1.2+reports-pad-16384", Wire{Reports: ReportPolicy{Mode: ReportsPad, Param: maxPadding}}},
		{"tls1.3+reports-split-1", Wire{Record: tlsrec.RecordTLS13, Reports: ReportPolicy{Mode: ReportsSplit, Param: 1}}},
		{"tls1.2+reports-compress-100", Wire{Reports: ReportPolicy{Mode: ReportsCompress, Param: 100}}},
	} {
		got, err := ParseWire(tc.label)
		if err != nil {
			t.Errorf("ParseWire(%q): %v", tc.label, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseWire(%q) = %+v, want %+v", tc.label, got, tc.want)
		}
		if s := got.String(); s != tc.label {
			t.Errorf("ParseWire(%q).String() = %q", tc.label, s)
		}
	}
}

// TestParseWireDefaultSizing: bare "quic" and the zero policy's own
// label both name the default sizing policy.
func TestParseWireDefaultSizing(t *testing.T) {
	for _, label := range []string{"quic", "quic+default-1350"} {
		w, err := ParseWire(label)
		if err != nil {
			t.Fatalf("ParseWire(%q): %v", label, err)
		}
		if w != (Wire{Transport: quicrec.TransportQUIC}) {
			t.Errorf("ParseWire(%q) = %+v, want QUIC with the zero sizing policy", label, w)
		}
	}
}

// TestParseWireRejects: a policy on a stack it does not shape, a size
// that is not positive or above its bound, and anything outside the
// grammar.
func TestParseWireRejects(t *testing.T) {
	for _, label := range []string{
		"", "tls", "tls1.4", "TLS1.3", "tcp", "quic+", "tls1.3+",
		"tls1.2+pad-to-64", "tls1.2+pad-random-128", // padding needs TLS 1.3
		"quic+pad-to-64", "quic+pad-random-128", // ...and is no QUIC policy
		"tls1.3+fixed-1200", "tls1.3+pad-full-1350", "tls1.3+default-1350", "tls1.3+pad-random-1350+2",
		"tls1.2+fixed-1200", // sizing needs QUIC
		"tls1.3+pad-to-0", "tls1.3+pad-to--3", "tls1.3+pad-random-0", "tls1.3+pad-random--1",
		"quic+fixed-0", "quic+pad-full--1350", "quic+pad-random-0+2", "quic+pad-random-1350+-1",
		"quic+default", "quic+default-1200", "quic+pad-random-1350",
		"tls1.3+pad-to-064", "tls1.3+pad-to-+64", "quic+fixed-1200x", "tls1.3+pad-to-64+pad-to-64",
		"tls1.3+pad-to-99999999999999999999",
		// Sizes no session can run: a pad-random parameter of MaxInt made
		// the padding draw panic, and K*N overflowed the band envelope.
		"tls1.3+pad-random-9223372036854775807", "quic+pad-random-1350+9223372036854775807",
		"tls1.3+pad-to-16385", "tls1.3+pad-random-16385",
		"quic+fixed-65528", "quic+pad-full-65528", "quic+pad-random-65528+2", "quic+pad-random-1350+17",
		// Report policies: TCP stacks only, one policy at a time, sizes in
		// 1..16384 and percentages in 1..100.
		"quic+reports-pad-4096", "tls1.3+pad-to-64+reports-pad-4096", "tls1.2+reports-pad-4096+reports-pad-4096",
		"tls1.2+reports-pad-0", "tls1.2+reports-split-0", "tls1.2+reports-compress-0", "tls1.2+reports-pad--1",
		"tls1.2+reports-pad-16385", "tls1.2+reports-split-16385", "tls1.2+reports-compress-101",
		"tls1.2+reports-pad-04096", "tls1.2+reports-", "tls1.2+reports-gzip-55", "tls1.2+pad-4096",
	} {
		if w, err := ParseWire(label); err == nil {
			t.Errorf("ParseWire(%q) = %+v, want an error", label, w)
		}
	}
}

// TestRunRejectsMismatchedWire: Run refuses a Wire literal whose policy
// does not fit its stack instead of dropping the policy silently.
func TestRunRejectsMismatchedWire(t *testing.T) {
	g := script.Bandersnatch()
	enc := media.Encode(g, media.DefaultLadder, 42)
	pop := viewer.SamplePopulation(1, wire.NewRNG(1))
	for _, w := range []Wire{
		{Padding: tlsrec.PadToMultipleOf(64)},
		{Transport: quicrec.TransportQUIC, Padding: tlsrec.PadRandomUpTo(128)},
		{Transport: quicrec.TransportQUIC, Record: tlsrec.RecordTLS13},
		{Sizing: quicrec.PadFull(1350)},
		{Record: tlsrec.RecordTLS13, Sizing: quicrec.Fixed(1200)},
		{Record: tlsrec.RecordTLS13, Padding: tlsrec.PadToMultipleOf(-64)},
		{Transport: quicrec.TransportQUIC, Sizing: quicrec.PadRandom(1350, -1)},
		{Record: tlsrec.RecordTLS13, Padding: tlsrec.PadRandomUpTo(maxPadding + 1)},
		{Transport: quicrec.TransportQUIC, Sizing: quicrec.PadRandom(1350, maxDummies+1)},
		{Transport: quicrec.TransportQUIC, Reports: ReportPolicy{Mode: ReportsPad, Param: 4096}},
		{Record: tlsrec.RecordTLS13, Padding: tlsrec.PadToMultipleOf(64), Reports: ReportPolicy{Mode: ReportsSplit, Param: 1200}},
		{Reports: ReportPolicy{Mode: ReportsCompress, Param: 101}},
		{Reports: ReportPolicy{Mode: ReportsNone, Param: 4096}},
		{Reports: ReportPolicy{Mode: ReportsCompress + 1, Param: 1}},
	} {
		_, err := Run(Config{Graph: g, Encoding: enc, Viewer: pop[0],
			Condition: profiles.Fig2Ubuntu, Seed: 1, Wire: w, OmitServerPayload: true})
		if err == nil {
			t.Errorf("Run accepted Wire %+v", w)
		} else if !strings.HasPrefix(err.Error(), "session: ") {
			t.Errorf("Run(%+v) error %q lacks the package prefix", w, err)
		}
	}
}

// FuzzParseWire: no input panics the parser, and every label it accepts
// passes Run's validation, re-parses from its String form to an equal
// Wire, has a non-negative band Envelope, draws its record padding
// without a panic, and sizes its reports non-negative.
func FuzzParseWire(f *testing.F) {
	for _, seed := range []string{
		"tls1.2", "tls1.3", "tls1.3+pad-to-64", "tls1.3+pad-random-512",
		"quic", "quic+default-1350", "quic+fixed-1200", "quic+pad-full-1350",
		"quic+pad-random-1350+2", "tls1.2+pad-to-64", "quic+pad-random-0+0",
		"tls1.3+pad-random-9223372036854775807", "quic+pad-random-1350+9223372036854775807",
		"tls1.2+reports-pad-4096", "tls1.3+reports-split-1200", "tls1.2+reports-compress-55",
		"quic+reports-pad-4096", "tls1.3+pad-to-64+reports-pad-4096",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, label string) {
		w, err := ParseWire(label)
		if err != nil {
			return
		}
		if err := w.validate(); err != nil {
			t.Fatalf("ParseWire(%q) = %+v, which Run rejects: %v", label, w, err)
		}
		again, err := ParseWire(w.String())
		if err != nil {
			t.Fatalf("ParseWire(%q).String() = %q does not re-parse: %v", label, w.String(), err)
		}
		if again != w {
			t.Fatalf("ParseWire(%q) = %+v, but its String %q re-parses to %+v", label, w, w.String(), again)
		}
		if env := w.Envelope(); env < 0 {
			t.Fatalf("ParseWire(%q).Envelope() = %d", label, env)
		}
		rng := wire.NewRNG(1)
		for n := 0; n < 3; n++ {
			if pad := w.Padding.PadBytes(n*1000, rng); pad < 0 || pad > max(w.Padding.Envelope(), 0) {
				t.Fatalf("ParseWire(%q).Padding.PadBytes = %d outside 0..%d", label, pad, w.Padding.Envelope())
			}
			for _, size := range w.Reports.appendSizes(nil, LabelType2, n*1000) {
				if size < 0 {
					t.Fatalf("ParseWire(%q) sends a %d-byte report as size %d", label, n*1000, size)
				}
			}
		}
	})
}

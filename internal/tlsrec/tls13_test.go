package tlsrec

import (
	"errors"
	"testing"
	"time"

	"repro/internal/wire"
)

// build13Stream synthesizes a client-side TLS 1.3 flight plus a few
// application writes and returns the wire bytes with their record ground
// truth.
func build13Stream(t testing.TB, pad PaddingPolicy, writes []int) ([]byte, []Record) {
	t.Helper()
	enc := NewEncryptor(SuiteAESGCM128TLS13, DefaultSplitter, VersionTLS13, wire.NewRNG(7))
	enc.SetPadding(pad, wire.NewRNG(11))
	w := wire.NewWriter(1 << 16)
	ts := time.Unix(1735689600, 0)
	recs := enc.HandshakeTranscript(w, ts, 517)
	for i, n := range writes {
		recs = append(recs, enc.WriteApplicationData(w, ts.Add(time.Duration(i)*time.Second), n)...)
	}
	return w.Bytes(), recs
}

// scanAll feeds a stream to a fresh scanner in one piece.
func scanAll(t *testing.T, stream []byte) *RecordScanner {
	t.Helper()
	sc := NewRecordScanner()
	sc.Feed(time.Unix(0, 0), stream)
	if err := sc.Err(); err != nil {
		t.Fatalf("scan: %v", err)
	}
	return sc
}

// TestScanner13Framing checks the synthesized 1.3 flight end to end: the
// hello is the only plaintext handshake record, everything after the CCS
// is outer application_data under the legacy version, and the scanner
// infers the 1.3 generation from exactly that shape.
func TestScanner13Framing(t *testing.T) {
	stream, truth := build13Stream(t, PaddingPolicy{}, []int{400, 2188})
	sc := scanAll(t, stream)
	got := sc.Records()
	if len(got) != len(truth) {
		t.Fatalf("scanned %d records, synthesized %d", len(got), len(truth))
	}
	for i, r := range got {
		if r.Type != truth[i].Type || r.Length != truth[i].Length || r.Version != truth[i].Version {
			t.Fatalf("record %d: scanned %+v, synthesized %+v", i, r, truth[i])
		}
	}
	if got[0].Type != ContentHandshake {
		t.Errorf("first record is %s, want the plaintext hello", got[0].Type)
	}
	if got[1].Type != ContentChangeCipherSpec {
		t.Errorf("second record is %s, want the compatibility CCS", got[1].Type)
	}
	for i, r := range got[2:] {
		if r.Type != ContentApplicationData {
			t.Errorf("post-CCS record %d is %s, want application_data (1.3 hides types)", i+2, r.Type)
		}
		if r.Version != VersionTLS12 {
			t.Errorf("post-CCS record %d carries version %#04x, want legacy 0x0303", i+2, uint16(r.Version))
		}
	}
	ver, known := sc.NegotiatedVersion()
	if !known || ver != RecordTLS13 {
		t.Errorf("negotiated version (%v, %v), want (tls1.3, true)", ver, known)
	}
}

// TestScanner12VersionInference pins the other side of the discriminator:
// a 1.2 flight's post-CCS Finished is a visible handshake record.
func TestScanner12VersionInference(t *testing.T) {
	enc := NewEncryptor(SuiteAESGCM128TLS12, DefaultSplitter, VersionTLS12, wire.NewRNG(7))
	w := wire.NewWriter(1 << 14)
	enc.HandshakeTranscript(w, time.Unix(0, 0), 517)
	enc.WriteApplicationData(w, time.Unix(1, 0), 400)
	sc := scanAll(t, w.Bytes())
	ver, known := sc.NegotiatedVersion()
	if !known || ver != RecordTLS12 {
		t.Errorf("negotiated version (%v, %v), want (tls1.2, true)", ver, known)
	}
}

// TestScanner13SplitAtInnerTypeByte feeds a 1.3 stream byte-split exactly
// at each record's final body byte — the position of the hidden inner
// content-type byte — and at every other offset, and requires the scan to
// be identical to the whole-stream scan. A scanner that confused the
// body-skip cursor at that boundary would shift every later record.
func TestScanner13SplitAtInnerTypeByte(t *testing.T) {
	stream, _ := build13Stream(t, PadToMultipleOf(64), []int{400, 2188, 60})
	want := scanAll(t, stream).Records()
	if len(want) < 5 {
		t.Fatalf("fixture too small: %d records", len(want))
	}
	// Split points: one byte before each record's end (the inner-type
	// byte of that record), plus each record end itself.
	var cuts []int
	for _, r := range want {
		end := int(r.StreamOffset) + r.WireLen()
		cuts = append(cuts, end-1, end)
	}
	for _, cut := range cuts {
		if cut <= 0 || cut >= len(stream) {
			continue
		}
		sc := NewRecordScanner()
		sc.Feed(time.Unix(0, 0), stream[:cut])
		sc.Feed(time.Unix(0, 0), stream[cut:])
		if err := sc.Err(); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		got := sc.Records()
		if len(got) != len(want) {
			t.Fatalf("cut %d: %d records, want %d", cut, len(got), len(want))
		}
		for i := range got {
			if got[i].Type != want[i].Type || got[i].Length != want[i].Length ||
				got[i].StreamOffset != want[i].StreamOffset {
				t.Fatalf("cut %d: record %d = %+v, want %+v", cut, i, got[i], want[i])
			}
		}
	}
}

// TestPaddingZeroLengthRuns pins the zero-pad edges of the policy
// arithmetic: an already-aligned inner plaintext draws no pad under
// PadToMultiple, PadRandom may legitimately draw zero, and a zero-pad
// record is byte-identical to an unpadded one.
func TestPaddingZeroLengthRuns(t *testing.T) {
	pol := PadToMultipleOf(64)
	if got := pol.PadBytes(128, nil); got != 0 {
		t.Errorf("aligned inner plaintext padded by %d, want 0", got)
	}
	if got := pol.PadBytes(129, nil); got != 63 {
		t.Errorf("129 padded by %d, want 63", got)
	}
	if got := (PaddingPolicy{}).PadBytes(500, nil); got != 0 {
		t.Errorf("PadNone padded by %d", got)
	}
	// PadRandom over a seeded stream must hit zero-length pads and stay
	// within [0, Param].
	rng := wire.NewRNG(3)
	rp := PadRandomUpTo(8)
	sawZero := false
	for i := 0; i < 256; i++ {
		p := rp.PadBytes(777, rng)
		if p < 0 || p > 8 {
			t.Fatalf("random pad %d outside [0, 8]", p)
		}
		if p == 0 {
			sawZero = true
		}
	}
	if !sawZero {
		t.Error("random padding never drew a zero-length run in 256 draws")
	}
	// A zero-pad record is byte-identical to an unpadded one (isolated
	// writes: the handshake's Finished is not bucket-aligned and would
	// legitimately differ).
	aligned := 128 - SuiteAESGCM128TLS13.InnerTypeByte // inner lands on the bucket exactly
	record13 := func(p PaddingPolicy) []byte {
		enc := NewEncryptor(SuiteAESGCM128TLS13, DefaultSplitter, VersionTLS13, wire.NewRNG(7))
		enc.SetPadding(p, wire.NewRNG(11))
		w := wire.NewWriter(1 << 10)
		enc.WriteApplicationData(w, time.Unix(0, 0), aligned)
		return w.CopyBytes()
	}
	if string(record13(PaddingPolicy{})) != string(record13(PadToMultipleOf(64))) {
		t.Error("zero-length pad changed the wire bytes")
	}
	// Envelope arithmetic the trainer relies on.
	if e := PadToMultipleOf(64).Envelope(); e != 63 {
		t.Errorf("pad-to-64 envelope %d, want 63", e)
	}
	if e := PadRandomUpTo(128).Envelope(); e != 128 {
		t.Errorf("pad-random-128 envelope %d, want 128", e)
	}
	if e := (PaddingPolicy{}).Envelope(); e != 0 {
		t.Errorf("none envelope %d, want 0", e)
	}
}

// TestPaddingClampedAtMaxRecord pins the RFC 8446 §5.4 bound: padding
// must never push a record past the protocol maximum. A full 16 KiB
// fragment leaves ~2 KiB of headroom, so a wide random policy must be
// clamped per record rather than panic in AppendRecordHeader.
func TestPaddingClampedAtMaxRecord(t *testing.T) {
	enc := NewEncryptor(SuiteAESGCM128TLS13, DefaultSplitter, VersionTLS13, nil)
	enc.SetPadding(PadRandomUpTo(4096), wire.NewRNG(5))
	w := wire.NewDiscardWriter()
	for i := 0; i < 64; i++ {
		recs := enc.WriteApplicationData(w, time.Unix(int64(i), 0), 16384)
		for _, r := range recs {
			if r.Length > MaxRecordPayload {
				t.Fatalf("padded record of %d bytes exceeds the %d maximum", r.Length, MaxRecordPayload)
			}
		}
	}
}

// TestHandshake13Direction pins the flight shapes: a client sends its
// whole ClientHello in the clear — including Chrome's 1.5 KiB GREASE-
// padded one — while a server shows only the ServerHello and wraps the
// certificate material. Direction is declared on the Encryptor, never
// guessed from hello sizes.
func TestHandshake13Direction(t *testing.T) {
	for _, helloLen := range []int{517, 1516} { // Firefox, Chrome
		c := NewEncryptor(SuiteAESGCM128TLS13, DefaultSplitter, VersionTLS13, wire.NewRNG(1))
		recs := c.HandshakeTranscript(wire.NewDiscardWriter(), time.Unix(0, 0), helloLen)
		if recs[0].Type != ContentHandshake || recs[0].Length != helloLen {
			t.Errorf("client hello of %d bytes framed as (%s, %d)", helloLen, recs[0].Type, recs[0].Length)
		}
	}
	s := NewEncryptor(SuiteAESGCM128TLS13, DefaultSplitter, VersionTLS13, nil)
	s.Server = true
	recs := s.HandshakeTranscript(wire.NewDiscardWriter(), time.Unix(0, 0), 3700)
	if recs[0].Length != serverHello13Len {
		t.Errorf("server flight shows %d plaintext bytes, want the bare ServerHello (%d)",
			recs[0].Length, serverHello13Len)
	}
	if last := recs[len(recs)-1]; last.Type != ContentApplicationData {
		t.Errorf("server certificate material framed as %s, want wrapped application_data", last.Type)
	}
}

// TestScannerRejectsMixedVersions splices 1.2-style framing into a flow
// that negotiated 1.3 — the one-tap port-reuse / corruption case — and
// requires a clean ErrMixedVersions instead of misread records.
func TestScannerRejectsMixedVersions(t *testing.T) {
	stream, _ := build13Stream(t, PaddingPolicy{}, []int{400})
	// Append a 1.2-style visible handshake record (a renegotiation that
	// cannot exist under 1.3).
	w := wire.NewWriter(64)
	AppendRecord(w, ContentHandshake, VersionTLS12, make([]byte, 40))
	mixed := append(append([]byte(nil), stream...), w.Bytes()...)

	sc := NewRecordScanner()
	sc.Feed(time.Unix(0, 0), mixed)
	if err := sc.Err(); !errors.Is(err, ErrMixedVersions) {
		t.Fatalf("mixed handshake framing: err = %v, want ErrMixedVersions", err)
	}
	// A late CCS is equally impossible under 1.3.
	w = wire.NewWriter(8)
	AppendRecord(w, ContentChangeCipherSpec, VersionTLS12, []byte{1})
	mixed = append(append([]byte(nil), stream...), w.Bytes()...)
	sc = NewRecordScanner()
	sc.Feed(time.Unix(0, 0), mixed)
	if err := sc.Err(); !errors.Is(err, ErrMixedVersions) {
		t.Fatalf("mixed CCS framing: err = %v, want ErrMixedVersions", err)
	}
	// The scan up to the violation survives: records before the splice
	// are intact, so the monitor can still account for the prefix.
	if n := len(scanAll(t, stream).Records()); n == 0 {
		t.Fatal("no records before the splice")
	}
}

package tlsrec

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/wire"
)

func TestAppendAndParseSingleRecord(t *testing.T) {
	w := wire.NewWriter(64)
	body := []byte("opaque ciphertext")
	AppendRecord(w, ContentHandshake, VersionTLS12, body)

	recs, rest, err := ParseStream(w.Bytes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rest != 0 {
		t.Errorf("unparsed bytes = %d", rest)
	}
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	r := recs[0]
	if r.Type != ContentHandshake || r.Version != VersionTLS12 ||
		r.Length != len(body) || r.StreamOffset != 0 {
		t.Errorf("record = %+v", r)
	}
	if r.WireLen() != 5+len(body) {
		t.Errorf("WireLen = %d", r.WireLen())
	}
}

func TestParseMultipleRecordsOffsets(t *testing.T) {
	w := wire.NewWriter(128)
	AppendRecord(w, ContentHandshake, VersionTLS12, make([]byte, 10))
	AppendRecord(w, ContentApplicationData, VersionTLS12, make([]byte, 20))
	AppendRecord(w, ContentApplicationData, VersionTLS12, make([]byte, 30))
	recs, _, err := ParseStream(w.Bytes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("records = %d", len(recs))
	}
	if recs[1].StreamOffset != 15 || recs[2].StreamOffset != 40 {
		t.Errorf("offsets = %d, %d", recs[1].StreamOffset, recs[2].StreamOffset)
	}
}

func TestParseTrailingPartialRecord(t *testing.T) {
	w := wire.NewWriter(64)
	AppendRecord(w, ContentHandshake, VersionTLS12, make([]byte, 8))
	AppendRecord(w, ContentApplicationData, VersionTLS12, make([]byte, 100))
	data := w.Bytes()[:w.Len()-40] // truncate mid-record
	recs, rest, err := ParseStream(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Errorf("records = %d, want 1", len(recs))
	}
	if rest != 65 { // 5 header + 60 delivered of the partial record
		t.Errorf("rest = %d, want 65", rest)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	_, _, err := ParseStream([]byte{0x47, 0x45, 0x54, 0x20, 0x2f, 0x20}, nil) // "GET / "
	if err == nil {
		t.Fatal("expected error on non-TLS bytes")
	}
}

func TestParseRejectsBadFirstVersion(t *testing.T) {
	w := wire.NewWriter(16)
	AppendRecord(w, ContentHandshake, Version(0x4747), make([]byte, 4))
	_, _, err := ParseStream(w.Bytes(), nil)
	if !errors.Is(err, ErrBadVersion) {
		t.Errorf("err = %v, want ErrBadVersion", err)
	}
}

func TestParseRejectsOversizedLength(t *testing.T) {
	buf := []byte{byte(ContentApplicationData), 0x03, 0x03, 0xff, 0xff}
	_, _, err := ParseStream(buf, nil)
	if !errors.Is(err, ErrBadLength) {
		t.Errorf("err = %v, want ErrBadLength", err)
	}
}

func TestParseTimestampResolution(t *testing.T) {
	w := wire.NewWriter(64)
	AppendRecord(w, ContentHandshake, VersionTLS12, make([]byte, 10))
	AppendRecord(w, ContentApplicationData, VersionTLS12, make([]byte, 10))
	ts := []time.Time{time.Unix(100, 0), time.Unix(200, 0)}
	at := func(off int64) time.Time {
		if off < 15 {
			return ts[0]
		}
		return ts[1]
	}
	recs, _, err := ParseStream(w.Bytes(), at)
	if err != nil {
		t.Fatal(err)
	}
	if !recs[0].Time.Equal(ts[0]) || !recs[1].Time.Equal(ts[1]) {
		t.Errorf("times = %v, %v", recs[0].Time, recs[1].Time)
	}
}

// TestStreamParserErrorSticky pins the incremental record parser's
// framing error mid-stream: records completed before the garbage stay,
// and later feeds neither replace the first error nor add records.
func TestStreamParserErrorSticky(t *testing.T) {
	w := wire.NewWriter(64)
	AppendRecord(w, ContentHandshake, VersionTLS12, make([]byte, 10))
	AppendRecord(w, ContentApplicationData, VersionTLS12, make([]byte, 20))
	good := w.Bytes()

	sc := NewRecordScanner()
	sc.Feed(time.Unix(1, 0), good)
	sc.Feed(time.Unix(2, 0), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	first := sc.Err()
	if first == nil {
		t.Fatal("expected framing error")
	}
	sc.Feed(time.Unix(3, 0), []byte{1, 2, 3})
	sc.Feed(time.Unix(4, 0), good)
	if sc.Err() != first {
		t.Errorf("error not sticky: %v, then %v", first, sc.Err())
	}
	recs := sc.Records()
	if len(recs) != 2 || recs[0].Length != 10 || recs[1].Length != 20 {
		t.Errorf("records after framing error = %+v, want the two before it", recs)
	}
}

func TestContentTypeString(t *testing.T) {
	cases := map[ContentType]string{
		ContentHandshake:        "handshake",
		ContentApplicationData:  "application_data",
		ContentAlert:            "alert",
		ContentChangeCipherSpec: "change_cipher_spec",
		ContentType(99):         "content(99)",
	}
	for ct, want := range cases {
		if got := ct.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", ct, got, want)
		}
	}
}

func TestSuiteGCMLengths(t *testing.T) {
	s := SuiteAESGCM128TLS12
	// nonce(8) + plaintext + tag(16)
	if got := s.CiphertextLen(100); got != 124 {
		t.Errorf("GCM CiphertextLen(100) = %d, want 124", got)
	}
	if got := s.PlaintextLen(124); got != 100 {
		t.Errorf("GCM PlaintextLen(124) = %d, want 100", got)
	}
}

func TestSuiteChaChaLengths(t *testing.T) {
	s := SuiteChaChaTLS12
	if got := s.CiphertextLen(100); got != 116 {
		t.Errorf("ChaCha CiphertextLen(100) = %d, want 116", got)
	}
}

func TestSuiteTLS13InnerByte(t *testing.T) {
	s := SuiteAESGCM128TLS13
	// plaintext + inner type byte + tag(16)
	if got := s.CiphertextLen(100); got != 117 {
		t.Errorf("TLS1.3 CiphertextLen(100) = %d, want 117", got)
	}
}

func TestSuiteCBCBlockAlignment(t *testing.T) {
	s := SuiteAESCBC256TLS12
	// IV(16) + ceil16(pt + mac(20) + 1 pad byte)
	got := s.CiphertextLen(100)
	// 100+20+1 = 121 -> 128; + 16 IV = 144
	if got != 144 {
		t.Errorf("CBC CiphertextLen(100) = %d, want 144", got)
	}
	// All plaintexts within one block window give the same ciphertext len.
	if s.CiphertextLen(101) != s.CiphertextLen(107) {
		t.Error("CBC lengths should be block-quantized")
	}
}

func TestSuitePadToQuantizes(t *testing.T) {
	s := SuiteAESGCM128TLS13
	s.PadTo = 256
	a, b := s.CiphertextLen(100), s.CiphertextLen(200)
	if a != b {
		t.Errorf("padded lengths differ: %d vs %d", a, b)
	}
	if s.CiphertextLen(100) == SuiteAESGCM128TLS13.CiphertextLen(100) {
		t.Error("PadTo had no effect")
	}
}

func TestSuiteRoundTripProperty(t *testing.T) {
	f := func(n uint16) bool {
		pt := int(n % 16384)
		for _, s := range []CipherSuite{SuiteAESGCM128TLS12, SuiteChaChaTLS12, SuiteAESGCM128TLS13} {
			if s.PlaintextLen(s.CiphertextLen(pt)) != pt {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSuiteMonotoneProperty(t *testing.T) {
	// Ciphertext length must be non-decreasing in plaintext length for
	// every suite — the attack's interval classifier relies on it.
	f := func(a, b uint16) bool {
		x, y := int(a%16384), int(b%16384)
		if x > y {
			x, y = y, x
		}
		for _, s := range []CipherSuite{SuiteAESGCM128TLS12, SuiteChaChaTLS12,
			SuiteAESGCM128TLS13, SuiteAESCBC256TLS12} {
			if s.CiphertextLen(x) > s.CiphertextLen(y) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSplitterWholeWrite(t *testing.T) {
	got := DefaultSplitter.Split(1000)
	if len(got) != 1 || got[0] != 1000 {
		t.Errorf("Split(1000) = %v", got)
	}
}

func TestSplitterLargeWrite(t *testing.T) {
	got := DefaultSplitter.Split(40000)
	want := []int{16384, 16384, 7232}
	if len(got) != len(want) {
		t.Fatalf("Split(40000) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Split[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestSplitterFirstRecordMax(t *testing.T) {
	sp := Splitter{MaxPlaintext: 16384, FirstRecordMax: 1}
	got := sp.Split(100)
	if len(got) != 2 || got[0] != 1 || got[1] != 99 {
		t.Errorf("1/n-1 Split(100) = %v", got)
	}
}

func TestSplitterZeroWrite(t *testing.T) {
	got := DefaultSplitter.Split(0)
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("Split(0) = %v", got)
	}
}

func TestSplitterConservesBytesProperty(t *testing.T) {
	f := func(n uint32, maxPT uint16, firstMax uint8) bool {
		sp := Splitter{MaxPlaintext: int(maxPT), FirstRecordMax: int(firstMax)}
		total := int(n % 100000)
		sum := 0
		for _, k := range sp.Split(total) {
			if k < 0 || k > 16384 {
				return false
			}
			sum += k
		}
		return sum == total || (total == 0 && sum == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncryptorWriteParsesBack(t *testing.T) {
	rng := wire.NewRNG(1)
	e := NewEncryptor(SuiteAESGCM128TLS12, DefaultSplitter, VersionTLS12, rng)
	w := wire.NewWriter(64 << 10)
	ts := time.Unix(1700000000, 0)
	hs := e.HandshakeTranscript(w, ts, 517)
	app := e.WriteApplicationData(w, ts.Add(time.Second), 2500)

	recs, rest, err := ParseStream(w.Bytes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rest != 0 {
		t.Errorf("unparsed = %d", rest)
	}
	if len(recs) != len(hs)+len(app) {
		t.Fatalf("parsed %d records, wrote %d", len(recs), len(hs)+len(app))
	}
	// The application record length must equal the suite's arithmetic.
	last := recs[len(recs)-1]
	if want := SuiteAESGCM128TLS12.CiphertextLen(2500); last.Length != want {
		t.Errorf("app record length = %d, want %d", last.Length, want)
	}
	if last.Type != ContentApplicationData {
		t.Errorf("app record type = %v", last.Type)
	}
}

func TestEncryptorLargeWriteSplits(t *testing.T) {
	e := NewEncryptor(SuiteAESGCM128TLS12, DefaultSplitter, VersionTLS12, nil)
	w := wire.NewWriter(1 << 20)
	recs := e.WriteApplicationData(w, time.Now(), 50000)
	if len(recs) != 4 { // 16384*3 + 848
		t.Errorf("records = %d, want 4", len(recs))
	}
	var pt int
	for _, r := range recs {
		pt += SuiteAESGCM128TLS12.PlaintextLen(r.Length)
	}
	if pt != 50000 {
		t.Errorf("recovered plaintext total = %d, want 50000", pt)
	}
}

// TestWirePrefixRebuildsZeroBodyStream checks that the record list of an
// Encryptor without an rng rebuilds its stream byte for byte from the
// records' wire prefixes, under both record layers and with padding.
func TestWirePrefixRebuildsZeroBodyStream(t *testing.T) {
	for _, tc := range []struct {
		name string
		ver  Version
		pad  PaddingPolicy
	}{
		{"tls1.2", VersionTLS12, PaddingPolicy{}},
		{"tls1.3+pad-to-64", VersionTLS13, PadToMultipleOf(64)},
		{"tls1.3+pad-random-512", VersionTLS13, PaddingPolicy{Mode: PadRandom, Param: 512}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEncryptor(SuiteAESGCM128TLS12, DefaultSplitter, tc.ver, nil)
			e.Server = true
			e.SetPadding(tc.pad, wire.NewRNG(5))
			w := wire.NewWriter(1 << 20)
			ts := time.Unix(1700000000, 0)
			recs := e.HandshakeTranscript(w, ts, 3700)
			for _, n := range []int{1, 700, 16384, 50000, 90} {
				recs = append(recs, e.WriteApplicationData(w, ts, n)...)
			}
			last := recs[len(recs)-1]
			rebuilt := make([]byte, int(last.StreamOffset)+last.WireLen())
			for _, r := range recs {
				pre, n := r.WirePrefix()
				copy(rebuilt[r.StreamOffset:], pre[:n])
			}
			if !bytes.Equal(rebuilt, w.Bytes()) {
				t.Fatalf("records rebuild %d bytes that differ from the %d-byte stream", len(rebuilt), w.Len())
			}
		})
	}
}

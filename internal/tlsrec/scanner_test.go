package tlsrec

import (
	"errors"
	"testing"
	"time"

	"repro/internal/wire"
)

// buildStream frames a few records and returns the wire bytes.
func buildStream(t testing.TB) ([]byte, []Record) {
	t.Helper()
	w := wire.NewWriter(0)
	enc := NewEncryptor(SuiteAESGCM128TLS12, DefaultSplitter, VersionTLS12, wire.NewRNG(5))
	ts := time.Unix(100, 0)
	var want []Record
	want = append(want, enc.HandshakeTranscript(w, ts, 517)...)
	for i, n := range []int{300, 2000, 40000, 0, 16384} {
		at := ts.Add(time.Duration(i+1) * time.Second)
		want = append(want, enc.WriteApplicationData(w, at, n)...)
	}
	return w.Bytes(), want
}

// TestRecordScannerMatchesParseStream feeds the same stream through the
// full parser and the header-only scanner in awkward chunkings and
// demands identical record sequences (minus bodies).
func TestRecordScannerMatchesParseStream(t *testing.T) {
	stream, _ := buildStream(t)
	full, rest, err := ParseStream(stream, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rest != 0 {
		t.Fatalf("trailing bytes: %d", rest)
	}
	for _, chunk := range []int{1, 2, 3, 5, 7, 1000, len(stream)} {
		sc := NewRecordScanner()
		for off := 0; off < len(stream); off += chunk {
			end := min(off+chunk, len(stream))
			sc.Feed(time.Unix(int64(200+off), 0), stream[off:end])
			if err := sc.Err(); err != nil {
				t.Fatalf("chunk=%d: %v", chunk, err)
			}
		}
		got := sc.Records()
		if len(got) != len(full) {
			t.Fatalf("chunk=%d: %d records, want %d", chunk, len(got), len(full))
		}
		for i := range full {
			if got[i].Type != full[i].Type || got[i].Length != full[i].Length ||
				got[i].Version != full[i].Version || got[i].StreamOffset != full[i].StreamOffset {
				t.Fatalf("chunk=%d: record %d = %+v, want %+v", chunk, i, got[i], full[i])
			}
		}
	}
}

// TestRecordScannerTimestampsFirstHeaderByte pins the timestamp
// semantics: a record is stamped with the arrival time of the chunk that
// carried its first header byte.
func TestRecordScannerTimestampsFirstHeaderByte(t *testing.T) {
	stream, _ := buildStream(t)
	sc := NewRecordScanner()
	// Two chunks, split mid-record somewhere in the middle.
	split := len(stream) / 2
	t0, t1 := time.Unix(10, 0), time.Unix(20, 0)
	sc.Feed(t0, stream[:split])
	sc.Feed(t1, stream[split:])
	for _, r := range sc.Records() {
		want := t0
		if r.StreamOffset >= int64(split) {
			want = t1
		}
		if !r.Time.Equal(want) {
			t.Fatalf("record at offset %d has time %v, want %v", r.StreamOffset, r.Time, want)
		}
	}
}

// TestRecordScannerTruncatedBody matches ParseStream's behaviour: a
// record whose body is cut off is not reported.
func TestRecordScannerTruncatedBody(t *testing.T) {
	stream, _ := buildStream(t)
	cut := stream[:len(stream)-3]
	full, _, err := ParseStream(cut, nil)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewRecordScanner()
	sc.Feed(time.Unix(1, 0), cut)
	if got := sc.Records(); len(got) != len(full) {
		t.Fatalf("scanner recovered %d records from truncated stream, parser %d", len(got), len(full))
	}
}

// TestRecordScannerRejectsGarbage mirrors the parser's validation. The
// error is sticky: a later Feed of valid records keeps the first error
// and adds no records.
func TestRecordScannerRejectsGarbage(t *testing.T) {
	sc := NewRecordScanner()
	sc.Feed(time.Unix(1, 0), []byte{0x99, 0x03, 0x03, 0x00, 0x01, 0x00})
	first := sc.Err()
	if first == nil {
		t.Fatal("scanner accepted an unknown content type")
	}
	w := wire.NewWriter(64)
	AppendRecord(w, ContentHandshake, VersionTLS12, make([]byte, 10))
	sc.Feed(time.Unix(2, 0), w.Bytes())
	if sc.Err() != first {
		t.Errorf("error not sticky: %v, then %v", first, sc.Err())
	}
	if n := len(sc.Records()); n != 0 {
		t.Errorf("scanner added %d records after its framing error", n)
	}
}

func TestAppendSplitMatchesSplit(t *testing.T) {
	sps := []Splitter{
		{},
		{MaxPlaintext: 1400},
		{MaxPlaintext: 16384, FirstRecordMax: 1},
	}
	for _, sp := range sps {
		for _, n := range []int{0, 1, 1399, 1400, 1401, 16384, 16385, 50000} {
			a := sp.Split(n)
			b := sp.AppendSplit(nil, n)
			if len(a) != len(b) {
				t.Fatalf("split mismatch for %+v n=%d", sp, n)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("split mismatch for %+v n=%d at %d", sp, n, i)
				}
			}
		}
	}
}

// TestRecordScannerReleaseRecords pins the descriptor-release cursor: the
// released prefix is gone, Released stays absolute, scanning continues,
// and a record whose body is still arriving can never be released.
func TestRecordScannerReleaseRecords(t *testing.T) {
	stream, _ := buildStream(t)
	sc := NewRecordScanner()
	// Feed all but the final byte: the last record's body is incomplete.
	sc.Feed(time.Unix(300, 0), stream[:len(stream)-1])
	complete := len(sc.Records())
	if complete == 0 {
		t.Fatal("no complete records")
	}
	all := append([]Record(nil), sc.Records()...)

	sc.ReleaseRecords(2)
	if sc.Released() != 2 {
		t.Fatalf("Released = %d", sc.Released())
	}
	if got := sc.Records(); len(got) != complete-2 || got[0].StreamOffset != all[2].StreamOffset {
		t.Fatalf("retained tail wrong: %d records, first %+v", len(got), got[0])
	}

	// Releasing "everything" is clamped to the complete records; the
	// in-flight partial record survives and completes on the last byte.
	sc.ReleaseRecords(1 << 30)
	if sc.Released() != complete {
		t.Fatalf("clamped release: Released = %d, want %d", sc.Released(), complete)
	}
	sc.Feed(time.Unix(301, 0), stream[len(stream)-1:])
	if got := sc.Records(); len(got) != 1 {
		t.Fatalf("final record lost across release: %d retained", len(got))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	// Backwards release is a no-op.
	sc.ReleaseRecords(1)
	if sc.Released() != complete {
		t.Errorf("backwards release moved the cursor: %d", sc.Released())
	}
}

// firstMixed is the reference for the record-generation rule ParseStream
// does not apply: it returns the index of the first record type that
// breaks it, or -1. The first record other than a ChangeCipherSpec after
// the first ChangeCipherSpec decides the generation: application data
// means TLS 1.3, after which no handshake or ChangeCipherSpec record may
// follow.
func firstMixed(types []ContentType) int {
	ccs, decided, tls13 := false, false, false
	for i, typ := range types {
		switch {
		case tls13 && (typ == ContentHandshake || typ == ContentChangeCipherSpec):
			return i
		case typ == ContentChangeCipherSpec:
			ccs = true
		case ccs && !decided:
			decided, tls13 = true, typ == ContentApplicationData
		}
	}
	return -1
}

// FuzzRecordScanner feeds any byte stream to a RecordScanner in pieces,
// each cuts byte giving the next piece's length and the last piece taking
// the rest, and stamps each piece with its own time. The scanner must
// read what ParseStream reads from the whole stream: the same records
// (type, version, length, stream offset, and the time of the piece
// holding each header's first byte) and the same error text, except
// where a record breaks the one-generation rule (firstMixed, which also
// judges the header of a trailing partial record): there the scanner
// stops with ErrMixedVersions and keeps only the records before it.
func FuzzRecordScanner(f *testing.F) {
	stream, _ := buildStream(f)
	stream13, _ := build13Stream(f, PaddingPolicy{}, []int{400, 2188})
	late := wire.NewWriter(64)
	AppendRecord(late, ContentHandshake, VersionTLS12, make([]byte, 40))
	for _, seed := range []struct{ cuts, stream []byte }{
		{nil, stream},
		{[]byte{1, 2, 3, 5, 7}, stream},
		{[]byte{4, 0, 1, 200, 255}, stream[:len(stream)-3]}, // truncated body
		{[]byte{3, 3}, stream13},
		{[]byte{2, 9, 1}, append(append([]byte(nil), stream13...), late.Bytes()...)}, // mixed framing
		{[]byte{1}, []byte{0x99, 0x03, 0x03, 0x00, 0x01, 0x00}},                      // unknown type
		{[]byte{2}, []byte{22, 0x02, 0x00, 0x00, 0x01, 0x00}},                        // bad first version
		{nil, []byte{23, 0x03, 0x03, 0xff, 0xff}},                                    // oversized length
	} {
		f.Add(seed.cuts, seed.stream)
	}
	base := time.Unix(1700000000, 0)
	f.Fuzz(func(t *testing.T, cuts, stream []byte) {
		// piece[j] is the piece holding stream byte j.
		piece := make([]int, len(stream))
		sc := NewRecordScanner()
		for i, off := 0, 0; off < len(stream); i++ {
			n := len(stream) - off // the last piece takes the rest
			if i < len(cuts) {
				n = min(int(cuts[i]), n)
			}
			for j := off; j < off+n; j++ {
				piece[j] = i
			}
			sc.Feed(base.Add(time.Duration(i)*time.Millisecond), stream[off:off+n])
			off += n
		}

		want, rest, wantErr := ParseStream(stream, func(off int64) time.Time {
			return base.Add(time.Duration(piece[off]) * time.Millisecond)
		})
		types := make([]ContentType, 0, len(want)+1)
		for _, r := range want {
			types = append(types, r.Type)
		}
		if wantErr == nil && rest >= headerLen {
			types = append(types, ContentType(stream[len(stream)-rest])) // a header whose body is cut off
		}
		mixed := firstMixed(types)
		if mixed >= 0 {
			want = want[:min(mixed, len(want))]
		}

		got, err := sc.Records(), sc.Err()
		switch {
		case mixed >= 0:
			if !errors.Is(err, ErrMixedVersions) {
				t.Fatalf("scanner error %v, want ErrMixedVersions at record %d", err, mixed)
			}
		case (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error():
			t.Fatalf("scanner error %v, ParseStream error %v", err, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("scanner read %d records, ParseStream %d", len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Type != w.Type || g.Version != w.Version || g.Length != w.Length ||
				g.StreamOffset != w.StreamOffset || !g.Time.Equal(w.Time) {
				t.Fatalf("record %d: scanner %+v, ParseStream %+v", i, g, Record{Type: w.Type,
					Version: w.Version, Length: w.Length, StreamOffset: w.StreamOffset, Time: w.Time})
			}
		}
	})
}

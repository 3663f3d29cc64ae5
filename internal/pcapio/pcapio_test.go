package pcapio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"testing/quick"
	"time"
)

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	frames := [][]byte{
		{1, 2, 3, 4, 5},
		{0xaa},
		make([]byte, 1500),
	}
	base := time.Unix(1700000000, 0)
	for i, f := range frames {
		if err := w.WritePacket(base.Add(time.Duration(i)*time.Millisecond), f); err != nil {
			t.Fatal(err)
		}
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.LinkType() != LinkTypeEthernet {
		t.Errorf("LinkType = %d", r.LinkType())
	}
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(frames) {
		t.Fatalf("read %d records, want %d", len(recs), len(frames))
	}
	for i, rec := range recs {
		if !bytes.Equal(rec.Data, frames[i]) {
			t.Errorf("record %d data mismatch", i)
		}
		want := base.Add(time.Duration(i) * time.Millisecond)
		if !rec.Timestamp.Equal(want) {
			t.Errorf("record %d ts = %v, want %v", i, rec.Timestamp, want)
		}
		if rec.OrigLen != len(frames[i]) {
			t.Errorf("record %d OrigLen = %d", i, rec.OrigLen)
		}
	}
}

func TestNanosecondResolution(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, WithNanosecondResolution())
	ts := time.Unix(1700000000, 123456789)
	if err := w.WritePacket(ts, []byte{1}); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Timestamp.Equal(ts) {
		t.Errorf("nanosecond ts = %v, want %v", rec.Timestamp, ts)
	}
}

func TestMicrosecondTruncatesNanos(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	ts := time.Unix(1700000000, 123456789)
	if err := w.WritePacket(ts, []byte{1}); err != nil {
		t.Fatal(err)
	}
	r, _ := NewReader(&buf)
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	want := time.Unix(1700000000, 123456000)
	if !rec.Timestamp.Equal(want) {
		t.Errorf("microsecond ts = %v, want %v", rec.Timestamp, want)
	}
}

func TestLittleEndianRead(t *testing.T) {
	// Hand-build a little-endian microsecond file, the most common form
	// produced by tcpdump on x86.
	var buf bytes.Buffer
	le := binary.LittleEndian
	hdr := make([]byte, 24)
	le.PutUint32(hdr[0:], 0xa1b2c3d4)
	le.PutUint16(hdr[4:], 2)
	le.PutUint16(hdr[6:], 4)
	le.PutUint32(hdr[16:], 65535)
	le.PutUint32(hdr[20:], LinkTypeEthernet)
	buf.Write(hdr)
	rec := make([]byte, 16)
	le.PutUint32(rec[0:], 1700000000)
	le.PutUint32(rec[4:], 42)
	le.PutUint32(rec[8:], 3)
	le.PutUint32(rec[12:], 3)
	buf.Write(rec)
	buf.Write([]byte{7, 8, 9})

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Timestamp.Equal(time.Unix(1700000000, 42000)) {
		t.Errorf("ts = %v", got.Timestamp)
	}
	if !bytes.Equal(got.Data, []byte{7, 8, 9}) {
		t.Errorf("data = %v", got.Data)
	}
}

func TestBadMagic(t *testing.T) {
	_, err := NewReader(bytes.NewReader(make([]byte, 24)))
	if !errors.Is(err, ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestTruncatedHeader(t *testing.T) {
	_, err := NewReader(bytes.NewReader([]byte{0xa1, 0xb2}))
	if !errors.Is(err, ErrTruncated) {
		t.Errorf("err = %v, want ErrTruncated", err)
	}
}

func TestTruncatedRecordBody(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WritePacket(time.Now(), []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	// Chop the last two payload bytes off.
	data := buf.Bytes()[:buf.Len()-2]
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); !errors.Is(err, ErrTruncated) {
		t.Errorf("err = %v, want ErrTruncated", err)
	}
}

func TestSnapLenTruncation(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, WithSnapLen(8))
	frame := make([]byte, 100)
	for i := range frame {
		frame[i] = byte(i)
	}
	if err := w.WritePacket(time.Now(), frame); err != nil {
		t.Fatal(err)
	}
	r, _ := NewReader(&buf)
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Data) != 8 {
		t.Errorf("captured %d bytes, want 8", len(rec.Data))
	}
	if rec.OrigLen != 100 {
		t.Errorf("OrigLen = %d, want 100", rec.OrigLen)
	}
}

// TestWritePacketPartsMatchesJoinedFrame: a frame written as head and
// payload parts is byte for byte the frame written joined, at every cut
// and at snap lengths that truncate inside the head, at the seam and
// inside the payload.
func TestWritePacketPartsMatchesJoinedFrame(t *testing.T) {
	frame := make([]byte, 100)
	for i := range frame {
		frame[i] = byte(i)
	}
	ts := time.Unix(1_600_000_000, 123_456_000)
	for _, snap := range []uint32{8, 54, 60, 100, 262144} {
		for _, cut := range []int{0, 1, 54, 99, 100} {
			var joined, parts bytes.Buffer
			if err := NewWriter(&joined, WithSnapLen(snap)).WritePacket(ts, frame); err != nil {
				t.Fatal(err)
			}
			if err := NewWriter(&parts, WithSnapLen(snap)).WritePacketParts(ts, frame[:cut], frame[cut:]); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(joined.Bytes(), parts.Bytes()) {
				t.Errorf("snap %d, cut %d: parts wrote %x, joined %x", snap, cut, parts.Bytes(), joined.Bytes())
			}
		}
	}
}

func TestBogusCaptureLengthRejected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, WithSnapLen(128))
	if err := w.WriteHeader(); err != nil {
		t.Fatal(err)
	}
	rec := make([]byte, 16)
	binary.BigEndian.PutUint32(rec[8:], 1<<30) // absurd caplen
	buf.Write(rec)
	r, _ := NewReader(&buf)
	if _, err := r.Next(); err == nil {
		t.Error("expected error for bogus capture length")
	}
}

// TestHugeSnapLenReadsRecords: a snap length within 64 of 2^32 allows
// every record, through the batch Reader and through a ChunkReader fed
// whole (the in-chunk path) or a few bytes at a time (the carry path).
func TestHugeSnapLenReadsRecords(t *testing.T) {
	for _, snap := range []uint32{0xffffffc0, 0xffffffff} {
		var buf bytes.Buffer
		w := NewWriter(&buf, WithSnapLen(snap))
		frames := [][]byte{make([]byte, 54), make([]byte, 1514), {1}}
		for i, f := range frames {
			if err := w.WritePacket(time.Unix(1700000000+int64(i), 0), f); err != nil {
				t.Fatal(err)
			}
		}
		data := buf.Bytes()
		r, err := NewBytesReader(data)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range frames {
			rec, err := r.Next()
			if err != nil {
				t.Fatalf("snap %#x: Reader record %d: %v", snap, i, err)
			}
			if !bytes.Equal(rec.Data, f) {
				t.Fatalf("snap %#x: Reader record %d has %d bytes, want %d", snap, i, len(rec.Data), len(f))
			}
		}
		for _, size := range []int{len(data), 7} {
			var cr ChunkReader
			var got int
			err := drainChunks(&cr, data, size, func(rec Record) {
				if got < len(frames) && len(rec.Data) != len(frames[got]) {
					t.Errorf("snap %#x, chunks of %d: record %d has %d bytes, want %d",
						snap, size, got, len(rec.Data), len(frames[got]))
				}
				got++
			})
			if err != nil || got != len(frames) {
				t.Fatalf("snap %#x, chunks of %d: %d records, err %v; want %d records", snap, size, got, err, len(frames))
			}
		}
	}
}

func TestEmptyFileWithHeader(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteHeader(); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteHeader(); err != nil { // idempotent
		t.Fatal(err)
	}
	if buf.Len() != 24 {
		t.Fatalf("double header written: %d bytes", buf.Len())
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("err = %v, want io.EOF", err)
	}
}

// buildCapture renders n deterministic frames for the ChunkReader tests.
func buildCapture(tb testing.TB, n int) ([]byte, [][]byte) {
	tb.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	var frames [][]byte
	for i := 0; i < n; i++ {
		f := make([]byte, 1+(i*37)%1400)
		for j := range f {
			f[j] = byte(i + j)
		}
		frames = append(frames, f)
		if err := w.WritePacket(time.Unix(1700000000+int64(i), 0), f); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes(), frames
}

// drainChunks feeds data to cr in chunks of the given size, each copied
// into one reused buffer that is overwritten once Next has drained it,
// and hands every record to check as Next returns it: Data is only
// promised until the next Next or Feed.
func drainChunks(cr *ChunkReader, data []byte, size int, check func(Record)) error {
	buf := make([]byte, size)
	for off := 0; off < len(data); off += size {
		chunk := buf[:copy(buf, data[off:min(off+size, len(data))])]
		cr.Feed(chunk)
		for {
			rec, ok, err := cr.Next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			check(rec)
		}
		for i := range chunk {
			chunk[i] = 0xee
		}
	}
	return nil
}

// TestChunkReaderMatchesReaderAtAnyGranularity feeds the same capture in
// chunks of various sizes — including single bytes — and requires the
// exact record sequence the batch Reader produces, each record compared
// as Next returns it.
func TestChunkReaderMatchesReaderAtAnyGranularity(t *testing.T) {
	data, _ := buildCapture(t, 40)
	rd, err := NewBytesReader(data)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 7, 1000, len(data)} {
		cr := NewChunkReader()
		i := 0
		err := drainChunks(cr, data, chunk, func(rec Record) {
			if i >= len(want) || !sameRecord(rec, want[i]) {
				t.Fatalf("chunk %d: record %d differs from the Reader's", chunk, i)
			}
			i++
		})
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		if err := cr.TailErr(); err != nil {
			t.Fatalf("chunk %d: TailErr = %v", chunk, err)
		}
		if i != len(want) {
			t.Fatalf("chunk %d: %d records, want %d", chunk, i, len(want))
		}
	}
}

// sameRecord reports whether two records carry the same timestamp,
// original length and bytes.
func sameRecord(a, b Record) bool {
	return a.Timestamp.Equal(b.Timestamp) && a.OrigLen == b.OrigLen && bytes.Equal(a.Data, b.Data)
}

// TestChunkReaderDataStable pins the in-place contract: a caller that
// reuses one chunk buffer and overwrites it as soon as Next reports that
// it needs more bytes still reads every record intact — a record cut at
// a chunk's end was carried before the overwrite — and a whole record
// aliases the caller's chunk rather than a copy.
func TestChunkReaderDataStable(t *testing.T) {
	data, frames := buildCapture(t, 200)
	for _, size := range []int{512, 1500, 64 << 10} {
		cr := NewChunkReader()
		i := 0
		err := drainChunks(cr, data, size, func(rec Record) {
			if !bytes.Equal(rec.Data, frames[i]) {
				t.Fatalf("chunk %d: record %d corrupted", size, i)
			}
			i++
		})
		if err != nil {
			t.Fatal(err)
		}
		if i != len(frames) || cr.Buffered() != 0 {
			t.Fatalf("chunk %d: %d records, %d bytes left, want %d and 0", size, i, cr.Buffered(), len(frames))
		}
	}
	cr := NewChunkReader()
	cr.Feed(data)
	rec, ok, err := cr.Next()
	if !ok || err != nil {
		t.Fatalf("Next = %v, %v", ok, err)
	}
	if &rec.Data[0] != &data[24+16] {
		t.Error("a record inside the chunk was copied")
	}
}

// TestChunkReaderFeedWithoutDrain feeds a second chunk before Next has
// drained the first: the first chunk's rest is carried, so overwriting
// it after the second Feed loses nothing.
func TestChunkReaderFeedWithoutDrain(t *testing.T) {
	data, frames := buildCapture(t, 20)
	half := len(data) / 2
	first := append([]byte(nil), data[:half]...)
	cr := NewChunkReader()
	cr.Feed(first)
	if _, ok, err := cr.Next(); !ok || err != nil {
		t.Fatalf("Next = %v, %v", ok, err)
	}
	cr.Feed(data[half:])
	for i := range first {
		first[i] = 0xee
	}
	for i := 1; ; i++ {
		rec, ok, err := cr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			if i != len(frames) {
				t.Fatalf("%d records, want %d", i, len(frames))
			}
			break
		}
		if !bytes.Equal(rec.Data, frames[i]) {
			t.Fatalf("record %d corrupted", i)
		}
	}
	if err := cr.TailErr(); err != nil {
		t.Fatal(err)
	}
}

// TestChunkReaderTailErr mirrors the batch reader's truncation reporting.
func TestChunkReaderTailErr(t *testing.T) {
	data, _ := buildCapture(t, 2)
	cases := []struct {
		name string
		cut  int
	}{
		{"mid file header", 10},
		{"mid record header", 24 + 8},
		{"mid record body", len(data) - 1},
	}
	for _, tc := range cases {
		cr := NewChunkReader()
		cr.Feed(data[:tc.cut])
		for {
			_, ok, err := cr.Next()
			if err != nil || !ok {
				break
			}
		}
		if err := cr.TailErr(); !errors.Is(err, ErrTruncated) {
			t.Errorf("%s: TailErr = %v, want ErrTruncated", tc.name, err)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(payloads [][]byte, secs []uint32) bool {
		if len(payloads) > 50 {
			payloads = payloads[:50]
		}
		var buf bytes.Buffer
		w := NewWriter(&buf, WithNanosecondResolution())
		for i, p := range payloads {
			if len(p) > 4096 {
				p = p[:4096]
			}
			payloads[i] = p
			var sec uint32 = 1700000000
			if i < len(secs) {
				sec = secs[i] % 2000000000
			}
			if err := w.WritePacket(time.Unix(int64(sec), int64(i)), p); err != nil {
				return false
			}
		}
		if len(payloads) == 0 {
			return true
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		recs, err := r.ReadAll()
		if err != nil || len(recs) != len(payloads) {
			return false
		}
		for i := range recs {
			if !bytes.Equal(recs[i].Data, payloads[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// FuzzChunkReader is the differential check of the incremental reader.
// Arbitrary bytes are fed in chunks that cuts picks, one byte per chunk
// (what is left goes in one last chunk): the low seven bits give the
// chunk's size, zero included, and a set top bit feeds the next chunk
// before this one is drained. Chunks alternate between two reused
// buffers, each overwritten as soon as the reader may let go of it:
// after the drain, or after the next Feed for a chunk fed over. The
// records, each compared as Next returns it, must be exactly the batch
// Reader's over the same bytes, with the same outcome: an error or
// none, ErrTruncated or not. No input may panic either reader.
func FuzzChunkReader(f *testing.F) {
	data, _ := buildCapture(f, 6)
	for _, cut := range []int{len(data), len(data) - 1, len(data) - 100, 24 + 16 + 3, 24 + 9, 24, 10, 0} {
		f.Add([]byte{1, 7, 0, 200, 16, 24}, data[:cut])
	}
	f.Add([]byte{}, data)
	// The first chunk is fed over while nothing is carried yet.
	f.Add([]byte{0x80 | 64, 100}, data)
	f.Add([]byte{3, 255, 255}, append([]byte{0xd4, 0xc3, 0xb2, 0xa1}, data[4:]...)) // read little-endian
	huge := append([]byte(nil), data...)
	binary.BigEndian.PutUint32(huge[24+8:], 1<<30) // capture length past the snap length
	f.Add([]byte{30, 30}, huge)
	f.Fuzz(func(t *testing.T, cuts, data []byte) {
		var want []Record
		rd, wantErr := NewBytesReader(data)
		if wantErr == nil {
			want, wantErr = rd.ReadAll()
		}
		cr := NewChunkReader()
		var bufs [2][]byte
		held := -1 // the buffer of a chunk fed over before its drain
		var gotErr error
		n := 0
		for off, k := 0, 0; off < len(data) && gotErr == nil; k++ {
			size, drain := len(data)-off, true
			if k < len(cuts) {
				size, drain = min(size, int(cuts[k]&0x7f)), cuts[k]&0x80 == 0
			}
			buf := append(bufs[k%2][:0], data[off:off+size]...)
			bufs[k%2] = buf
			off += size
			cr.Feed(buf)
			if held >= 0 {
				flip(bufs[held]) // this Feed carried what was left of it
				held = -1
			}
			if !drain && off < len(data) {
				held = k % 2
				continue
			}
			for {
				rec, ok, err := cr.Next()
				if err != nil {
					gotErr = err
					break
				}
				if !ok {
					break
				}
				if n >= len(want) || !sameRecord(rec, want[n]) {
					t.Fatalf("record %d differs from the Reader's (%d records)", n, len(want))
				}
				n++
			}
			flip(buf)
		}
		if gotErr == nil {
			gotErr = cr.TailErr()
		}
		if n != len(want) {
			t.Fatalf("%d records, the Reader read %d", n, len(want))
		}
		if (gotErr == nil) != (wantErr == nil) || errors.Is(gotErr, ErrTruncated) != errors.Is(wantErr, ErrTruncated) {
			t.Fatalf("error %v, the Reader's %v", gotErr, wantErr)
		}
	})
}

// flip overwrites a chunk the reader has let go of.
func flip(b []byte) {
	for i := range b {
		b[i] ^= 0xff
	}
}

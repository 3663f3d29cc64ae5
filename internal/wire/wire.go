// Package wire provides low-level byte packing/unpacking helpers, the
// Internet checksum, and a deterministic PRNG shared by every simulator
// module so that whole-repo experiments are reproducible from a single seed.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// ErrShortBuffer is returned when a decode runs past the end of its input.
var ErrShortBuffer = errors.New("wire: short buffer")

// Reader is a bounds-checked big-endian cursor over a byte slice.
// All Read* methods record the first error and become no-ops afterwards,
// so a decode routine can issue a sequence of reads and check Err once.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader positioned at the start of buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err reports the first error encountered by any Read* call.
func (r *Reader) Err() error { return r.err }

// Offset returns the number of bytes consumed so far.
func (r *Reader) Offset() int { return r.off }

// Remaining returns the number of unconsumed bytes.
func (r *Reader) Remaining() int {
	if r.off >= len(r.buf) {
		return 0
	}
	return len(r.buf) - r.off
}

func (r *Reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if r.Remaining() < n {
		r.err = fmt.Errorf("%w: need %d bytes at offset %d, have %d",
			ErrShortBuffer, n, r.off, r.Remaining())
		return false
	}
	return true
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if !r.need(1) {
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 {
	if !r.need(2) {
		return 0
	}
	v := binary.BigEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// Bytes reads n bytes, returning a sub-slice of the underlying buffer
// (no copy). The caller must not mutate it.
func (r *Reader) Bytes(n int) []byte {
	if n < 0 {
		if r.err == nil {
			r.err = fmt.Errorf("wire: negative read length %d", n)
		}
		return nil
	}
	if !r.need(n) {
		return nil
	}
	v := r.buf[r.off : r.off+n]
	r.off += n
	return v
}

// Skip advances the cursor n bytes.
func (r *Reader) Skip(n int) {
	if !r.need(n) {
		return
	}
	r.off += n
}

// Rest returns every unconsumed byte and advances to the end.
func (r *Reader) Rest() []byte {
	v := r.buf[r.off:]
	r.off = len(r.buf)
	return v
}

// Writer is an append-only big-endian byte builder.
type Writer struct {
	buf []byte
	// dirty reports whether bytes beyond len(buf) may be nonzero. A fresh
	// backing array from make is zero everywhere, and appends only ever
	// write at len, so bytes past the high-water mark stay zero until the
	// Writer is reset or recycled; Zero exploits this to skip memclr on
	// pristine regions — the simulation writes megabytes of zero record
	// bodies per session.
	dirty bool
	// discard turns the Writer into a pure length model: appends advance
	// virtual without storing bytes. Used by lean simulations that need
	// exact stream offsets but never read the payload back.
	discard bool
	virtual int
}

// NewWriter returns a Writer with the given initial capacity hint.
func NewWriter(capHint int) *Writer {
	return &Writer{buf: make([]byte, 0, capHint)}
}

// NewDiscardWriter returns a Writer that tracks offsets but stores
// nothing: Len advances exactly as a real Writer's would, Bytes stays
// nil. It models a byte stream whose contents nobody will ever read —
// e.g. the multi-megabyte server direction of a profiling session, where
// only record descriptors and offsets matter.
func NewDiscardWriter() *Writer { return &Writer{discard: true} }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int {
	if w.discard {
		return w.virtual
	}
	return len(w.buf)
}

// Bytes returns the accumulated buffer (nil for a discard Writer).
func (w *Writer) Bytes() []byte { return w.buf }

// U8 appends one byte.
func (w *Writer) U8(v uint8) {
	if w.discard {
		w.virtual++
		return
	}
	w.buf = append(w.buf, v)
}

// U16 appends a big-endian uint16.
func (w *Writer) U16(v uint16) {
	if w.discard {
		w.virtual += 2
		return
	}
	w.buf = binary.BigEndian.AppendUint16(w.buf, v)
}

// U32 appends a big-endian uint32.
func (w *Writer) U32(v uint32) {
	if w.discard {
		w.virtual += 4
		return
	}
	w.buf = binary.BigEndian.AppendUint32(w.buf, v)
}

// U64 appends a big-endian uint64.
func (w *Writer) U64(v uint64) {
	if w.discard {
		w.virtual += 8
		return
	}
	w.buf = binary.BigEndian.AppendUint64(w.buf, v)
}

// Write appends raw bytes.
func (w *Writer) Write(p []byte) {
	if w.discard {
		w.virtual += len(p)
		return
	}
	w.buf = append(w.buf, p...)
}

// grow extends the buffer length by n, reallocating geometrically when
// capacity runs out. The extended region may contain stale bytes when the
// Writer is dirty; callers overwrite or clear it.
func (w *Writer) grow(n int) (l int) {
	l = len(w.buf)
	if cap(w.buf)-l >= n {
		w.buf = w.buf[:l+n]
		return l
	}
	newCap := 2 * cap(w.buf)
	if newCap < l+n {
		newCap = l + n
	}
	nb := make([]byte, l+n, newCap)
	copy(nb, w.buf)
	w.buf = nb
	// Only the copied prefix [0, l) carries old data; everything beyond
	// came zeroed from make, so the writer is pristine again.
	w.dirty = false
	return l
}

// Zero appends n zero bytes in place, without the intermediate make+copy
// of append — the hot path when synthesizing megabytes of opaque record
// bodies per session. On a pristine (never recycled) backing array the
// extension is free: the bytes are already zero.
func (w *Writer) Zero(n int) {
	if n <= 0 {
		return
	}
	if w.discard {
		w.virtual += n
		return
	}
	l := w.grow(n)
	if w.dirty {
		clear(w.buf[l : l+n])
	}
}

// Fill appends n pseudo-random bytes drawn from rng directly into the
// buffer, eight bytes per generator step.
func (w *Writer) Fill(n int, rng *RNG) {
	if n <= 0 {
		return
	}
	if w.discard {
		// Advance the generator as the materialized path would, so a lean
		// run consumes the identical RNG stream.
		for i := 0; i < (n+7)/8; i++ {
			rng.Uint64()
		}
		w.virtual += n
		return
	}
	l := w.grow(n)
	b := w.buf[l : l+n]
	i := 0
	for ; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(b[i:], rng.Uint64())
	}
	if i < n {
		v := rng.Uint64()
		for ; i < n; i++ {
			b[i] = byte(v)
			v >>= 8
		}
	}
}

// Reset truncates the buffer to zero length, keeping its capacity. The
// truncated-away bytes remain in the backing array, so the Writer becomes
// dirty (Zero must clear from here on).
func (w *Writer) Reset() {
	if len(w.buf) > 0 {
		w.dirty = true
	}
	w.buf = w.buf[:0]
}

// CopyBytes returns a copy of the accumulated bytes, so a pooled Writer
// can be recycled while the caller keeps the data. The append allocates
// without zeroing the part the copy fills, which make+copy would clear
// first; only the allocator's size-class rounding past the end may be
// spare capacity.
func (w *Writer) CopyBytes() []byte {
	return append([]byte{}, w.buf...)
}

// maxPooledWriterCap bounds how large a buffer the pool retains; anything
// bigger is dropped so one pathological session cannot pin memory forever.
const maxPooledWriterCap = 64 << 20

// writerPool recycles the multi-megabyte per-session stream buffers, the
// single largest allocation in the simulation hot path.
var writerPool = sync.Pool{New: func() any { return &Writer{} }}

// GetWriter returns a pooled Writer with at least capHint capacity and
// zero length. Pair with PutWriter once the contents have been copied out.
// Recycled writers are dirty: their Zero pays a memclr, so pool writers
// only where the contents are fully overwritten (e.g. frame arenas).
func GetWriter(capHint int) *Writer {
	w := writerPool.Get().(*Writer)
	if cap(w.buf) < capHint {
		w.buf = make([]byte, 0, capHint)
		w.dirty = false
	} else {
		w.Reset()
	}
	return w
}

// PutWriter returns a Writer to the pool. The caller must not retain the
// Writer or any slice of its buffer (use CopyBytes for surviving data).
// Discard Writers are not pooled.
func PutWriter(w *Writer) {
	if w == nil || w.discard {
		return
	}
	if cap(w.buf) > maxPooledWriterCap {
		w.buf = nil
	}
	writerPool.Put(w)
}

// SetU16 overwrites a big-endian uint16 at an absolute offset, used to
// back-patch length and checksum fields after a payload is appended.
// It is a no-op on a discard Writer.
func (w *Writer) SetU16(off int, v uint16) {
	if w.discard {
		return
	}
	binary.BigEndian.PutUint16(w.buf[off:], v)
}

// Checksum computes the 16-bit one's-complement Internet checksum
// (RFC 1071) over data. An odd trailing byte is padded with zero.
func Checksum(data []byte) uint16 { return FinishChecksum(AddChecksum(0, data)) }

// AddChecksum folds a partial sum with additional data, for pseudo-header
// checksums computed in pieces. Pass the running sum from a previous call
// (0 initially) and finish with FinishChecksum; pieces must split on
// 16-bit boundaries.
//
// The loop adds 8 bytes per step, as two big-endian 32-bit words, into a
// 64-bit accumulator, then folds the carries back into 32 bits. Because
// 2^16 ≡ 1 (mod 0xffff), a 32-bit word is congruent to the sum of its
// 16-bit halves (RFC 1071 §2(B)): the finished checksum equals that of a
// 16-bit word sum, though the raw partial sums may differ.
func AddChecksum(sum uint32, data []byte) uint32 {
	acc := uint64(sum)
	for len(data) >= 8 {
		v := binary.BigEndian.Uint64(data)
		acc += v>>32 + v&0xffffffff
		data = data[8:]
	}
	for len(data) >= 2 {
		acc += uint64(binary.BigEndian.Uint16(data))
		data = data[2:]
	}
	if len(data) == 1 {
		acc += uint64(data[0]) << 8
	}
	for acc > 0xffffffff {
		acc = acc&0xffffffff + acc>>32
	}
	return uint32(acc)
}

// FinishChecksum folds carries and complements a running sum started with
// AddChecksum.
func FinishChecksum(sum uint32) uint16 {
	for sum > 0xffff {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}

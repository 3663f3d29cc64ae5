// Package pcapio reads and writes classic libpcap capture files
// (the tcpdump ".pcap" format) with the standard library only.
//
// The simulator writes its synthetic viewing sessions as genuine pcap
// files and the attack reads them back through this package, so the
// analysis pipeline is byte-compatible with captures produced by tcpdump
// or Wireshark. Both file endiannesses and both timestamp resolutions
// (microsecond magic 0xa1b2c3d4 and nanosecond magic 0xa1b23c4d) are
// supported on read; writes use the host-independent big-endian
// microsecond form by default.
//
// Reading is zero-copy: a Reader holds the whole capture in one arena
// buffer and every Record's Data sub-slices it, so a multi-megabyte
// capture costs one buffer (or none at all via NewBytesReader) instead of
// one allocation per packet. ChunkReader is the incremental form for live
// feeds: pcap bytes arrive in chunks of any size, complete records pop
// out as soon as their last byte is in, and they are parsed in place from
// the caller's chunk, so only a record cut at a chunk's end is copied.
package pcapio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// Link types (a tiny subset of the registry).
const (
	// LinkTypeEthernet is DLT_EN10MB: Ethernet II frames.
	LinkTypeEthernet uint32 = 1
)

const (
	magicMicros        = 0xa1b2c3d4
	magicNanos         = 0xa1b23c4d
	magicMicrosSwapped = 0xd4c3b2a1
	magicNanosSwapped  = 0x4d3cb2a1

	fileHeaderLen   = 24
	recordHeaderLen = 16
)

// Errors returned by the reader.
var (
	ErrBadMagic  = errors.New("pcapio: not a pcap file (bad magic)")
	ErrTruncated = errors.New("pcapio: truncated capture file")
)

// Record is one captured frame.
type Record struct {
	Timestamp time.Time
	// OrigLen is the frame's length on the wire; Data may be shorter if
	// the capture used a snap length.
	OrigLen int
	// Data sub-slices the bytes the reader parses. A Reader's Data stays
	// valid for the reader's lifetime; a ChunkReader's, until its next
	// call to Next or Feed. Copy it to keep it longer.
	Data []byte
}

// Writer emits a pcap file to an io.Writer.
type Writer struct {
	w       io.Writer
	snapLen uint32
	nanos   bool
	wrote   bool
	// rec is the record-header scratch: a local array passed to the
	// io.Writer would escape, one allocation per packet.
	rec [recordHeaderLen]byte
}

// WriterOption customises a Writer.
type WriterOption func(*Writer)

// WithNanosecondResolution makes the writer use the nanosecond-precision
// magic number and timestamp encoding.
func WithNanosecondResolution() WriterOption {
	return func(w *Writer) { w.nanos = true }
}

// WithSnapLen sets the advertised snap length (default 262144, tcpdump's
// modern default).
func WithSnapLen(n uint32) WriterOption {
	return func(w *Writer) { w.snapLen = n }
}

// NewWriter creates a pcap writer for Ethernet frames. The file header is
// written lazily on the first WritePacket (or eagerly via Flush of a
// zero-packet file is not supported; call WriteHeader explicitly if an
// empty capture must still be a valid file).
func NewWriter(w io.Writer, opts ...WriterOption) *Writer {
	pw := &Writer{w: w, snapLen: 262144}
	for _, o := range opts {
		o(pw)
	}
	return pw
}

// WriteHeader writes the global file header. It is idempotent.
func (w *Writer) WriteHeader() error {
	if w.wrote {
		return nil
	}
	var hdr [fileHeaderLen]byte
	magic := uint32(magicMicros)
	if w.nanos {
		magic = magicNanos
	}
	binary.BigEndian.PutUint32(hdr[0:], magic)
	binary.BigEndian.PutUint16(hdr[4:], 2) // version major
	binary.BigEndian.PutUint16(hdr[6:], 4) // version minor
	// thiszone and sigfigs stay zero.
	binary.BigEndian.PutUint32(hdr[16:], w.snapLen)
	binary.BigEndian.PutUint32(hdr[20:], LinkTypeEthernet)
	if _, err := w.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("pcapio: writing file header: %w", err)
	}
	w.wrote = true
	return nil
}

// WritePacket appends one frame with the given capture timestamp.
func (w *Writer) WritePacket(ts time.Time, frame []byte) error {
	return w.WritePacketParts(ts, frame, nil)
}

// WritePacketParts appends one frame given in two parts, head then
// payload, exactly as WritePacket would append them joined, so a caller
// that holds a frame's headers apart from its payload never copies the
// two together. The snap length truncates the joined frame.
func (w *Writer) WritePacketParts(ts time.Time, head, payload []byte) error {
	if err := w.WriteHeader(); err != nil {
		return err
	}
	origLen := len(head) + len(payload)
	capLen := origLen
	if uint32(capLen) > w.snapLen {
		capLen = int(w.snapLen)
	}
	head = head[:min(len(head), capLen)]
	payload = payload[:capLen-len(head)]
	sec := ts.Unix()
	var sub int64
	if w.nanos {
		sub = int64(ts.Nanosecond())
	} else {
		sub = int64(ts.Nanosecond() / 1000)
	}
	hdr := w.rec[:]
	binary.BigEndian.PutUint32(hdr[0:], uint32(sec))
	binary.BigEndian.PutUint32(hdr[4:], uint32(sub))
	binary.BigEndian.PutUint32(hdr[8:], uint32(capLen))
	binary.BigEndian.PutUint32(hdr[12:], uint32(origLen))
	if _, err := w.w.Write(hdr); err != nil {
		return fmt.Errorf("pcapio: writing record header: %w", err)
	}
	if _, err := w.w.Write(head); err != nil {
		return fmt.Errorf("pcapio: writing record data: %w", err)
	}
	if len(payload) > 0 {
		if _, err := w.w.Write(payload); err != nil {
			return fmt.Errorf("pcapio: writing record data: %w", err)
		}
	}
	return nil
}

// fileHeader is the decoded global header shared by both reader forms.
type fileHeader struct {
	// swapped marks a little-endian file (a byte-swapped magic): a plain
	// flag rather than a binary.ByteOrder, so the per-record field reads
	// make no interface call.
	swapped  bool
	nanos    bool
	linkType uint32
	snapLen  uint32
}

// parseFileHeader decodes the 24-byte global header.
func parseFileHeader(hdr []byte) (fileHeader, error) {
	var fh fileHeader
	magic := binary.BigEndian.Uint32(hdr[0:])
	switch magic {
	case magicMicros: // big-endian microseconds: the zero fileHeader
	case magicNanos:
		fh.nanos = true
	case magicMicrosSwapped:
		fh.swapped = true
	case magicNanosSwapped:
		fh.swapped, fh.nanos = true, true
	default:
		return fh, fmt.Errorf("%w: %#08x", ErrBadMagic, magic)
	}
	fh.snapLen = fh.u32(hdr[16:])
	fh.linkType = fh.u32(hdr[20:])
	return fh, nil
}

// u32 reads one 32-bit header field in the file's byte order.
func (fh fileHeader) u32(b []byte) uint32 {
	if fh.swapped {
		return binary.LittleEndian.Uint32(b)
	}
	return binary.BigEndian.Uint32(b)
}

// recordTime decodes a record header's timestamp fields.
func (fh fileHeader) recordTime(hdr []byte) time.Time {
	sec := fh.u32(hdr[0:])
	sub := fh.u32(hdr[4:])
	if fh.nanos {
		return time.Unix(int64(sec), int64(sub))
	}
	return time.Unix(int64(sec), int64(sub)*1000)
}

// checkCapLen guards against nonsense lengths from corrupt files before
// slicing. (+64 tolerates writers that set snaplen loosely; the sum is
// taken in uint64 so a snap length near 2^32 cannot wrap it.)
func (fh fileHeader) checkCapLen(capLen uint32) error {
	if fh.snapLen > 0 && uint64(capLen) > uint64(fh.snapLen)+64 {
		return fmt.Errorf("pcapio: record capture length %d exceeds snap length %d",
			capLen, fh.snapLen)
	}
	return nil
}

// Reader parses a pcap capture held entirely in memory: Next sub-slices
// the input per record, so iterating a capture performs no per-packet
// allocation. It is a ChunkReader fed the whole capture at once.
type Reader struct{ c ChunkReader }

// NewReader drains r into the arena, parses the global header and returns
// a Reader positioned at the first record.
func NewReader(r io.Reader) (*Reader, error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("pcapio: reading capture: %w", err)
	}
	return NewBytesReader(buf)
}

// NewBytesReader parses an in-memory capture without copying it: records
// sub-slice data directly.
func NewBytesReader(data []byte) (*Reader, error) {
	if len(data) < fileHeaderLen {
		return nil, fmt.Errorf("%w: file header: unexpected EOF", ErrTruncated)
	}
	fh, err := parseFileHeader(data)
	if err != nil {
		return nil, err
	}
	return &Reader{ChunkReader{fileHeader: fh, headerDone: true, buf: data[fileHeaderLen:]}}, nil
}

// LinkType returns the capture's link-layer type.
func (r *Reader) LinkType() uint32 { return r.c.linkType }

// SnapLen returns the capture's snap length.
func (r *Reader) SnapLen() uint32 { return r.c.snapLen }

// Next returns the next record, or io.EOF at a clean end of file.
// A record header that promises more bytes than the file contains yields
// ErrTruncated, so partially written captures are detected rather than
// silently shortened. The record's Data sub-slices the reader's arena.
func (r *Reader) Next() (Record, error) {
	rec, ok, err := r.c.Next()
	if !ok && err == nil {
		if err = r.c.TailErr(); err == nil {
			err = io.EOF
		}
	}
	return rec, err
}

// ReadAll drains the reader into a slice. It returns records read so far
// alongside any error other than io.EOF.
func (r *Reader) ReadAll() ([]Record, error) {
	var recs []Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
	}
}

// ChunkReader is the incremental reader for live feeds: pcap bytes
// arrive in chunks of any size, down to a single byte, and Next returns
// each record, parsed in place from the caller's chunk, as soon as its
// last byte has arrived. Out of whole records, Next copies the unparsed
// tail (part of the file header or of one record) into a small carry
// buffer before it reports that it needs more bytes, so the caller may
// then reuse its chunk. Data stays valid until the next Next or Feed.
type ChunkReader struct {
	fileHeader
	headerDone bool
	buf        []byte // the caller's latest chunk, parsed in place from off
	off        int
	// carry holds fed bytes that come before buf[off:], read from coff:
	// a record cut at the end of a chunk, or the rest of a chunk fed over
	// before Next drained it. It is empty when nothing is carried.
	carry []byte
	coff  int
	err   error
}

// NewChunkReader returns an empty incremental reader awaiting the global
// file header.
func NewChunkReader() *ChunkReader { return &ChunkReader{} }

// Feed hands the reader the next capture bytes, split anywhere. They are
// parsed in place: the caller leaves data unchanged until Next reports
// that it needs more bytes or fails. A Feed before that point copies
// what is left of the previous chunk into the carry buffer.
func (c *ChunkReader) Feed(data []byte) {
	if c.err == nil {
		c.carry = append(c.carry, c.buf[c.off:]...)
		c.buf, c.off = data, 0
	}
}

// LinkType returns the capture's link-layer type (valid once the file
// header has been consumed).
func (c *ChunkReader) LinkType() uint32 { return c.linkType }

// SnapLen returns the capture's snap length (valid once the file header
// has been consumed).
func (c *ChunkReader) SnapLen() uint32 { return c.snapLen }

// Buffered reports the number of fed bytes not yet consumed by Next.
func (c *ChunkReader) Buffered() int { return len(c.carry) - c.coff + len(c.buf) - c.off }

// HeaderDone reports whether the global file header has been consumed.
func (c *ChunkReader) HeaderDone() bool { return c.headerDone }

// Next returns the next complete record. ok is false when more bytes are
// needed, and then the reader no longer refers to the chunk. A malformed
// header yields an error, after which the reader is stuck (matching
// Reader's fail-stop behaviour).
func (c *ChunkReader) Next() (rec Record, ok bool, err error) {
	if b := c.buf[c.off:]; len(b) >= recordHeaderLen && c.headerDone && len(c.carry) == 0 {
		// The in-chunk path: a whole record inside the caller's chunk.
		capLen, origLen := c.u32(b[8:]), c.u32(b[12:])
		if n := recordHeaderLen + int(capLen); n <= len(b) && c.checkCapLen(capLen) == nil {
			c.off += n
			return Record{Timestamp: c.recordTime(b), OrigLen: int(origLen), Data: b[recordHeaderLen:n:n]}, true, nil
		}
	}
	// Else one item (the file header, then records) at a time, carry first.
	for c.err == nil {
		b := c.buf[c.off:]
		if len(c.carry) > 0 {
			b = c.carry[c.coff:]
		}
		n, err := c.itemLen(b)
		if err != nil {
			c.err = err
			break
		}
		if n > len(b) {
			// Cut: carry the chunk's part, or top the carried one up.
			rest := c.buf[c.off:]
			if len(c.carry) > 0 {
				rest = rest[:min(n-len(b), len(rest))]
			}
			if len(rest) == 0 {
				break
			}
			c.carry = append(c.carry, rest...)
			c.off += len(rest)
			continue
		}
		if len(c.carry) == 0 {
			c.off += n
		} else if c.coff += n; c.coff == len(c.carry) {
			c.carry, c.coff = c.carry[:0], 0
		}
		if c.headerDone {
			return Record{Timestamp: c.recordTime(b), OrigLen: int(c.u32(b[12:])), Data: b[recordHeaderLen:n:n]}, true, nil
		}
		if c.fileHeader, c.err = parseFileHeader(b); c.err == nil {
			c.headerDone = true
		}
	}
	c.buf, c.off = nil, 0
	return Record{}, false, c.err
}

// itemLen is the length of the item at the front of b as far as b tells:
// the file header's until it is read, then a record's, counting only its
// header until that is whole.
func (c *ChunkReader) itemLen(b []byte) (int, error) {
	switch {
	case !c.headerDone:
		return fileHeaderLen, nil
	case len(b) < recordHeaderLen:
		return recordHeaderLen, nil
	}
	capLen := c.u32(b[8:])
	return recordHeaderLen + int(capLen), c.checkCapLen(capLen)
}

// TailErr reports whether the feed ended on a clean record boundary: nil
// when every fed byte was consumed, the same errors a batch Reader would
// return otherwise (missing file header, or a record cut off mid-header /
// mid-body). Call it when the feed is known to be complete.
func (c *ChunkReader) TailErr() error {
	if c.err != nil {
		return c.err
	}
	if !c.headerDone {
		return fmt.Errorf("%w: file header: unexpected EOF", ErrTruncated)
	}
	switch n := c.Buffered(); {
	case n == 0:
		return nil
	case n < recordHeaderLen:
		return fmt.Errorf("%w: record header: unexpected EOF", ErrTruncated)
	default:
		return fmt.Errorf("%w: record body: unexpected EOF", ErrTruncated)
	}
}

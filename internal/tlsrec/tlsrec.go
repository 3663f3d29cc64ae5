// Package tlsrec models the TLS/SSL record layer as seen by a passive
// eavesdropper: the 5-byte plaintext record header (content type, version,
// length) followed by an opaque ciphertext body.
//
// The White Mirror side-channel is exactly the record length field, which
// stays visible after encryption. This package provides (a) framing —
// writing and parsing record streams — and (b) a length model: how many
// ciphertext bytes a given plaintext produces under a cipher suite, and
// how a TLS stack splits large writes into records. The simulator uses the
// forward direction to synthesize traffic and the attack uses the parser.
package tlsrec

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/wire"
)

// ContentType is the TLS record content type byte.
type ContentType uint8

// Content types relevant to the pipeline.
const (
	ContentChangeCipherSpec ContentType = 20
	ContentAlert            ContentType = 21
	ContentHandshake        ContentType = 22
	ContentApplicationData  ContentType = 23
)

// String names the content type.
func (c ContentType) String() string {
	switch c {
	case ContentChangeCipherSpec:
		return "change_cipher_spec"
	case ContentAlert:
		return "alert"
	case ContentHandshake:
		return "handshake"
	case ContentApplicationData:
		return "application_data"
	default:
		return fmt.Sprintf("content(%d)", uint8(c))
	}
}

// Version is the TLS record-layer protocol version.
type Version uint16

// Record-layer versions.
const (
	VersionTLS10 Version = 0x0301
	VersionTLS12 Version = 0x0303
	// VersionTLS13 records still carry 0x0303 on the wire; the constant
	// marks an Encryptor as speaking the 1.3 record layer and never
	// appears in a synthesized header.
	VersionTLS13 Version = 0x0304
)

// RecordVersion identifies the record-layer *generation* a TLS stack
// speaks — the framing an eavesdropper observes — as opposed to the
// Version carried in record headers (TLS 1.3 records carry the 1.2 value
// 0x0303 for middlebox compatibility, RFC 8446 §5.1).
type RecordVersion int

// Record-layer generations.
const (
	// RecordTLS12 is the classic record layer: true content types visible
	// in every header, handshake and CCS records interleaved with data.
	RecordTLS12 RecordVersion = iota
	// RecordTLS13 is the RFC 8446 record layer: after the hello exchange
	// every protected record travels as outer-type application_data, the
	// true content type hides in the encrypted TLSInnerPlaintext, and a
	// padding policy may inflate record lengths.
	RecordTLS13
)

// WireVersion returns the Version an Encryptor of this generation is
// constructed with — the one place the generation→version rule lives, so
// every producer (session, capture noise flows) frames identically.
func (v RecordVersion) WireVersion() Version {
	if v == RecordTLS13 {
		return VersionTLS13
	}
	return VersionTLS12
}

// String names the record generation.
func (v RecordVersion) String() string {
	switch v {
	case RecordTLS12:
		return "tls1.2"
	case RecordTLS13:
		return "tls1.3"
	default:
		return fmt.Sprintf("record-version(%d)", int(v))
	}
}

// headerLen is the record header size: type(1) + version(2) + length(2).
const headerLen = 5

// MaxRecordPayload is the maximum TLSCiphertext fragment length
// (2^14 + 2048, RFC 5246 §6.2.3).
const MaxRecordPayload = 16384 + 2048

// Errors from the parser.
var (
	ErrShortRecord = errors.New("tlsrec: record extends past available bytes")
	ErrBadLength   = errors.New("tlsrec: record length exceeds protocol maximum")
	ErrBadVersion  = errors.New("tlsrec: implausible record version")
	// ErrMixedVersions marks a flow whose framing switches record-layer
	// generations mid-stream — e.g. a plaintext handshake or CCS record
	// appearing after TLS 1.3 framing was negotiated. One TCP conversation
	// speaks one record layer; a violation means the scanner is not
	// looking at a single well-formed TLS flow (port reuse spliced two
	// captures together, or the stream is corrupt) and the flow is
	// rejected rather than misread.
	ErrMixedVersions = errors.New("tlsrec: mixed TLS 1.2/1.3 record framing in one flow")
)

// Record is one TLS record as observed on the wire.
type Record struct {
	Type    ContentType
	Version Version
	// Length is the ciphertext fragment length from the header — the
	// side-channel value the attack classifies.
	Length int
	// Time is the capture timestamp of the TCP segment that carried the
	// record's first byte.
	Time time.Time
	// StreamOffset is the record header's byte offset in the TCP stream;
	// the body is the Length bytes after the header.
	StreamOffset int64
}

// WireLen is the record's total on-wire size including the header.
func (r Record) WireLen() int { return headerLen + r.Length }

// changeCipherSpecMessage is the ChangeCipherSpec protocol's one message
// byte (RFC 5246 §7.1), the whole body of a ChangeCipherSpec record.
const changeCipherSpecMessage = 1

// WirePrefix returns the leading wire bytes of r as an Encryptor without
// an rng frames it, and how many of b they fill: the 5-byte header, then
// a ChangeCipherSpec record's message byte. Every later byte of such a
// record is zero, so its record list alone reproduces the stream.
func (r Record) WirePrefix() (b [headerLen + 1]byte, n int) {
	b[0] = uint8(r.Type)
	b[1], b[2] = uint8(r.Version>>8), uint8(r.Version)
	b[3], b[4] = uint8(r.Length>>8), uint8(r.Length)
	if r.Type == ContentChangeCipherSpec && r.Length > 0 {
		b[5] = changeCipherSpecMessage
		return b, headerLen + 1
	}
	return b, headerLen
}

// AppendRecord frames body as a single record. It panics if body exceeds
// MaxRecordPayload, which indicates a splitter bug upstream.
func AppendRecord(w *wire.Writer, typ ContentType, ver Version, body []byte) {
	AppendRecordHeader(w, typ, ver, len(body))
	w.Write(body)
}

// AppendRecordHeader frames the 5-byte header of a record whose body the
// caller will append next (e.g. in place via Writer.Zero/Fill). It panics
// if n exceeds MaxRecordPayload, which indicates a splitter bug upstream.
func AppendRecordHeader(w *wire.Writer, typ ContentType, ver Version, n int) {
	if n > MaxRecordPayload {
		panic(fmt.Sprintf("tlsrec: fragment of %d bytes exceeds maximum", n))
	}
	w.U8(uint8(typ))
	w.U16(uint16(ver))
	w.U16(uint16(n))
}

// timeAt resolves the capture time for a stream offset given chunk
// boundaries, implemented by the caller as a closure; see ParseStream.
type timeAt func(off int64) time.Time

// ParseStream scans a reassembled TCP byte stream and returns every
// complete TLS record. at maps stream offsets to capture times (pass nil
// to leave timestamps zero). Parsing is strict about structure (lengths,
// known content types for the first record) but tolerates a trailing
// partial record, returning the records recovered so far plus the number
// of trailing bytes it could not consume.
func ParseStream(stream []byte, at timeAt) ([]Record, int, error) {
	var recs []Record
	off := 0
	for off+headerLen <= len(stream) {
		typ := ContentType(stream[off])
		ver := Version(uint16(stream[off+1])<<8 | uint16(stream[off+2]))
		length := int(stream[off+3])<<8 | int(stream[off+4])
		if err := validateHeader(typ, ver, length, len(recs) == 0); err != nil {
			return recs, len(stream) - off, err
		}
		if off+headerLen+length > len(stream) {
			// Trailing partial record: normal for live or truncated captures.
			break
		}
		rec := Record{Type: typ, Version: ver, Length: length, StreamOffset: int64(off)}
		if at != nil {
			rec.Time = at(int64(off))
		}
		recs = append(recs, rec)
		off += headerLen + length
	}
	return recs, len(stream) - off, nil
}

func validateHeader(typ ContentType, ver Version, length int, first bool) error {
	if length > MaxRecordPayload {
		return fmt.Errorf("%w: %d", ErrBadLength, length)
	}
	switch typ {
	case ContentChangeCipherSpec, ContentAlert, ContentHandshake, ContentApplicationData:
	default:
		return fmt.Errorf("tlsrec: unknown content type %d at record boundary", typ)
	}
	if first {
		// The first record of a TLS connection is a handshake record with
		// a plausible version; anything else means we are not looking at
		// TLS (or the capture started mid-record).
		if ver>>8 != 0x03 {
			return fmt.Errorf("%w: %#04x", ErrBadVersion, uint16(ver))
		}
	}
	return nil
}

// RecordScanner is a header-only streaming record extractor: bytes are fed
// in arrival order (e.g. straight from TCP reassembly, whose streams take
// a scanner as their tcpreasm.Consumer) and only the 5-byte headers are
// ever buffered — body bytes are counted and skipped
// without being copied or concatenated. This is the attack pipeline's hot
// path: the side-channel needs lengths and times, never bodies, so a
// multi-megabyte capture costs a record-descriptor slice and nothing else.
type RecordScanner struct {
	recs     []Record
	released int // records dropped from the front by ReleaseRecords
	hdr      [headerLen]byte
	// hdrLen counts header bytes accumulated so far for the record being
	// started; hdrOff/hdrTime pin its stream offset and arrival time.
	hdrLen  int
	hdrOff  int64
	hdrTime time.Time
	skip    int   // body bytes of the current record still to discard
	off     int64 // absolute stream offset of the next input byte
	err     error

	// Version inference from framing: the first record after a
	// ChangeCipherSpec discriminates the generations (see note).
	ccsSeen  bool
	verKnown bool
	version  RecordVersion
}

// NewRecordScanner returns an empty scanner positioned at stream offset 0.
func NewRecordScanner() *RecordScanner { return &RecordScanner{} }

// Feed consumes stream bytes that arrived at time ts. Completed record
// headers are appended to the result list; bodies are skipped in place.
func (s *RecordScanner) Feed(ts time.Time, data []byte) {
	if s.err != nil {
		return
	}
	for len(data) > 0 {
		if s.skip > 0 {
			n := s.skip
			if n > len(data) {
				n = len(data)
			}
			s.skip -= n
			s.off += int64(n)
			data = data[n:]
			continue
		}
		if s.hdrLen == 0 {
			s.hdrOff, s.hdrTime = s.off, ts
		}
		n := copy(s.hdr[s.hdrLen:], data)
		s.hdrLen += n
		s.off += int64(n)
		data = data[n:]
		if s.hdrLen < headerLen {
			return
		}
		typ := ContentType(s.hdr[0])
		ver := Version(uint16(s.hdr[1])<<8 | uint16(s.hdr[2]))
		length := int(s.hdr[3])<<8 | int(s.hdr[4])
		if err := validateHeader(typ, ver, length, s.released+len(s.recs) == 0); err != nil {
			s.err = err
			return
		}
		if err := s.noteFraming(typ); err != nil {
			s.err = err
			return
		}
		s.recs = append(s.recs, Record{
			Type: typ, Version: ver, Length: length,
			Time: s.hdrTime, StreamOffset: s.hdrOff,
		})
		s.hdrLen = 0
		s.skip = length
	}
}

// Records returns the complete records scanned and not yet released. A
// trailing partial record (header or body cut off mid-stream) is absent,
// matching ParseStream's tolerance for truncated captures.
func (s *RecordScanner) Records() []Record {
	if s.skip > 0 && len(s.recs) > 0 {
		// The last record's body never finished arriving; exclude it so a
		// truncated capture parses exactly as it does through ParseStream.
		return s.recs[:len(s.recs)-1]
	}
	return s.recs
}

// Released returns the number of record descriptors dropped by
// ReleaseRecords; Records()[0], when present, has absolute index
// Released().
func (s *RecordScanner) Released() int { return s.released }

// ReleaseRecords drops every complete record with absolute index < n from
// the scanner's retention — the descriptor-level analogue of
// tcpreasm.Stream.ReleaseThrough. A rolling-window consumer that has
// classified a record and will never revisit it (a rejected noise flow,
// the server direction whose lengths the attack never reads) releases it
// so descriptor memory is bounded by the window, not the tap's lifetime.
// Scanning continues unaffected; a record whose body is still arriving is
// never released. Releasing past the completed count is clamped.
func (s *RecordScanner) ReleaseRecords(n int) {
	if complete := s.released + len(s.Records()); n > complete {
		n = complete
	}
	k := n - s.released
	if k <= 0 {
		return
	}
	rest := copy(s.recs, s.recs[k:])
	for i := rest; i < len(s.recs); i++ {
		s.recs[i] = Record{}
	}
	s.recs = s.recs[:rest]
	s.released = n
}

// noteFraming drives the record-generation inference. Both generations
// put the hello exchange in the clear, so the discriminator is the first
// record after the ChangeCipherSpec: TLS 1.2 carries its encrypted
// Finished as a visible handshake record (type 22), while TLS 1.3 wraps
// everything from that point in outer application_data (type 23, the CCS
// itself being a compatibility dummy). Once 1.3 framing is established,
// a later plaintext handshake or CCS record is a generation violation.
func (s *RecordScanner) noteFraming(typ ContentType) error {
	if s.verKnown && s.version == RecordTLS13 &&
		(typ == ContentHandshake || typ == ContentChangeCipherSpec) {
		return fmt.Errorf("%w: %s record after TLS 1.3 framing", ErrMixedVersions, typ)
	}
	switch {
	case typ == ContentChangeCipherSpec:
		s.ccsSeen = true
	case s.ccsSeen && !s.verKnown:
		s.verKnown = true
		if typ == ContentApplicationData {
			s.version = RecordTLS13
		} else {
			s.version = RecordTLS12
		}
	}
	return nil
}

// NegotiatedVersion reports the record generation inferred from the
// flow's framing, and whether enough of the handshake has been seen to
// infer it (the discriminating record is the first one after the
// ChangeCipherSpec).
func (s *RecordScanner) NegotiatedVersion() (RecordVersion, bool) {
	return s.version, s.verKnown
}

// Err reports a fatal framing error, after which Feed is a no-op.
func (s *RecordScanner) Err() error { return s.err }

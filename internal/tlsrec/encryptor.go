package tlsrec

import (
	"slices"
	"time"

	"repro/internal/wire"
)

// Encryptor is the write-side length model: it turns application writes
// into sequences of framed records exactly as a TLS stack would, so the
// simulator can synthesize the ciphertext byte stream an eavesdropper
// observes. Record bodies are filled with PRNG noise (they are opaque to
// the attack; realistic entropy keeps accidental structure out of tests).
//
// An Encryptor belongs to one session and is not safe for concurrent use;
// it reuses internal scratch space, and its append form
// (AppendApplicationData) writes the record descriptors into a slice the
// caller keeps, so a simulator that collects one direction's records in
// one growing list frames each write without allocating.
//
// Passing VersionTLS13 selects the RFC 8446 record layer: every protected
// record is framed as outer-type application_data with the legacy 0x0303
// version (the true content type would hide inside the ciphertext), the
// handshake transcript takes the 1.3 shape, and a PaddingPolicy set via
// SetPadding inflates record lengths.
type Encryptor struct {
	Suite    CipherSuite
	Splitter Splitter
	Version  Version
	// Server marks this encryptor as the server side of the connection.
	// The TLS 1.3 handshake flight differs by direction — a client sends
	// its whole ClientHello in the clear (even Chrome's 1.5 KiB GREASE-
	// padded one), a server shows only the ServerHello and wraps the
	// certificate material — so the direction is declared, not guessed
	// from sizes. Ignored under TLS 1.2, whose transcript shape is
	// symmetric at this level of modelling.
	Server   bool
	rng      *wire.RNG
	padding  PaddingPolicy
	padRng   *wire.RNG
	splitBuf []int // reused across writes by appendWrite
}

// NewEncryptor returns an Encryptor for the given suite and splitter.
// rng may be nil, in which case record bodies are zero-filled.
func NewEncryptor(suite CipherSuite, sp Splitter, ver Version, rng *wire.RNG) *Encryptor {
	if ver == 0 {
		ver = VersionTLS12
	}
	return &Encryptor{Suite: suite, Splitter: sp, Version: ver, rng: rng}
}

// SetPadding installs an RFC 8446 record-padding policy. padRng seeds the
// per-record draw of PadRandom policies (deterministic policies may pass
// nil); it must be a dedicated stream so lean and full-fidelity runs of
// the same session consume identical randomness. Padding is a TLS 1.3
// mechanism and is ignored by a 1.2 Encryptor.
func (e *Encryptor) SetPadding(p PaddingPolicy, padRng *wire.RNG) {
	e.padding = p
	e.padRng = padRng
}

// generation resolves the record layer the encryptor speaks.
func (e *Encryptor) generation() RecordVersion {
	if e.Version == VersionTLS13 {
		return RecordTLS13
	}
	return RecordTLS12
}

// WriteApplicationData frames one application-layer write of n plaintext
// bytes into w and returns the resulting record descriptors (with Time
// set to ts). Only the length of the plaintext matters; bodies are noise.
// It is AppendApplicationData onto a nil slice.
func (e *Encryptor) WriteApplicationData(w *wire.Writer, ts time.Time, n int) []Record {
	return e.AppendApplicationData(nil, w, ts, n)
}

// AppendApplicationData frames one application-layer write of n plaintext
// bytes into w, as WriteApplicationData does, and appends the resulting
// record descriptors to dst, returning the extended slice. The elements
// already in dst are left as they are.
func (e *Encryptor) AppendApplicationData(dst []Record, w *wire.Writer, ts time.Time, n int) []Record {
	return e.appendWrite(dst, w, ts, ContentApplicationData, n)
}

// WriteHandshake frames a handshake message of n bytes.
func (e *Encryptor) WriteHandshake(w *wire.Writer, ts time.Time, n int) []Record {
	return e.appendWrite(nil, w, ts, ContentHandshake, n)
}

// appendBody emits one record of n body bytes directly into w — zero or
// PRNG fill in place, with no intermediate body buffer.
func (e *Encryptor) appendBody(w *wire.Writer, typ ContentType, ver Version, n int) {
	AppendRecordHeader(w, typ, ver, n)
	if e.rng != nil {
		w.Fill(n, e.rng)
	} else {
		w.Zero(n)
	}
}

// appendWrite frames one write of n plaintext bytes of type typ into w,
// split and (under TLS 1.3) padded per record, and appends one descriptor
// per record to dst.
func (e *Encryptor) appendWrite(dst []Record, w *wire.Writer, ts time.Time, typ ContentType, n int) []Record {
	wireTyp, wireVer := typ, e.Version
	pad13 := false
	if e.generation() == RecordTLS13 {
		// Every protected 1.3 record travels as outer application_data
		// under the legacy version; the true type is the hidden inner byte
		// the suite's InnerTypeByte already accounts for.
		wireTyp, wireVer = ContentApplicationData, VersionTLS12
		pad13 = true
	}
	e.splitBuf = e.Splitter.AppendSplit(e.splitBuf[:0], n)
	dst = slices.Grow(dst, len(e.splitBuf))
	for _, pt := range e.splitBuf {
		if pad13 {
			pad := e.padding.PadBytes(pt+e.Suite.InnerTypeByte, e.padRng)
			// RFC 8446 §5.4: padding must not push a record past the
			// protocol maximum. A full 16 KiB fragment leaves little
			// headroom, so wide policies are clamped per record (the RNG
			// draw above is taken regardless, keeping lean and full runs
			// on identical streams).
			if maxPad := MaxRecordPayload - e.Suite.CiphertextLen(pt); pad > maxPad {
				pad = maxPad
			}
			pt += pad
		}
		ct := e.Suite.CiphertextLen(pt)
		off := int64(w.Len())
		e.appendBody(w, wireTyp, wireVer, ct)
		dst = append(dst, Record{
			Type: wireTyp, Version: wireVer, Length: ct,
			Time: ts, StreamOffset: off,
		})
	}
	return dst
}

// HandshakeTranscript appends a plausible TLS handshake flight to w:
// under TLS 1.2 the hello (ClientHello, or ServerHello plus certificate
// chain — the caller sizes it), then ChangeCipherSpec and Finished; under
// TLS 1.3 the 8446 shape via handshake13. Sizes follow the observed
// ranges for 2019-era browsers: the attack must correctly skip these
// records, so captures include them.
func (e *Encryptor) HandshakeTranscript(w *wire.Writer, ts time.Time, helloLen int) []Record {
	if e.generation() == RecordTLS13 {
		return e.handshake13(w, ts, helloLen)
	}
	out := make([]Record, 0, 3)
	off := int64(w.Len())
	e.appendBody(w, ContentHandshake, VersionTLS10, helloLen)
	out = append(out, Record{Type: ContentHandshake, Version: VersionTLS10,
		Length: helloLen, Time: ts, StreamOffset: off})

	off = int64(w.Len())
	AppendRecord(w, ContentChangeCipherSpec, e.Version, []byte{changeCipherSpecMessage})
	out = append(out, Record{Type: ContentChangeCipherSpec, Version: e.Version,
		Length: 1, Time: ts, StreamOffset: off})

	finished := e.Suite.CiphertextLen(16)
	off = int64(w.Len())
	AppendRecordHeader(w, ContentHandshake, e.Version, finished)
	w.Zero(finished)
	out = append(out, Record{Type: ContentHandshake, Version: e.Version,
		Length: finished, Time: ts, StreamOffset: off})
	return out
}

// tls13FinishedLen is the plaintext Finished message under the 1.3
// suites' SHA-256 transcripts (4-byte handshake header + 32-byte MAC).
const tls13FinishedLen = 36

// serverHello13Len is the plaintext ServerHello of a 1.3 flight; unlike
// 1.2, the certificate chain travels encrypted after it.
const serverHello13Len = 155

// handshake13 appends an RFC 8446 handshake flight: the hello itself in
// the clear (the only plaintext record 1.3 ever shows), the dummy
// ChangeCipherSpec middleboxes expect, and the remainder of the flight —
// Finished client-side; EncryptedExtensions through Finished server-side
// — wrapped in protected records an eavesdropper cannot tell from
// application data.
func (e *Encryptor) handshake13(w *wire.Writer, ts time.Time, helloLen int) []Record {
	// A ClientHello travels whole; the server's flight keeps only the
	// ServerHello in the clear and wraps the certificate material.
	plain := helloLen
	if e.Server && plain > serverHello13Len {
		plain = serverHello13Len
	}
	out := make([]Record, 0, 4)
	off := int64(w.Len())
	e.appendBody(w, ContentHandshake, VersionTLS10, plain)
	out = append(out, Record{Type: ContentHandshake, Version: VersionTLS10,
		Length: plain, Time: ts, StreamOffset: off})

	off = int64(w.Len())
	AppendRecord(w, ContentChangeCipherSpec, VersionTLS12, []byte{changeCipherSpecMessage})
	out = append(out, Record{Type: ContentChangeCipherSpec, Version: VersionTLS12,
		Length: 1, Time: ts, StreamOffset: off})

	rest := helloLen - plain + tls13FinishedLen
	return e.appendWrite(out, w, ts, ContentHandshake, rest)
}

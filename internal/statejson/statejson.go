// Package statejson synthesizes the interactive state-report messages the
// viewer's browser sends to the streaming service: a type-1 report when a
// choice question appears on screen and a type-2 report when the viewer
// selects the non-default option. A report is a real JSON document padded
// with an opaque session-state blob so its plaintext size matches the
// condition profile's calibrated body length — the quantity the
// side-channel leaks.
//
// The session simulator needs only that length, so it sizes messages and
// never builds them: each minting form (Type1, Type2, RequestBody,
// TelemetryBody) has a size-only form (Type1Size, Type2Size, RequestSize,
// TelemetrySize) that draws the same randomness and returns the length of
// the body the minting form would build. Real JSON documents come only
// from the minting forms (label sidecars, the live example, the
// encoding benchmark) and from the tests' json.Marshal oracle.
package statejson

import (
	"encoding/json"
	"fmt"
	"strconv"
	"unicode/utf8"

	"repro/internal/profiles"
	"repro/internal/script"
	"repro/internal/wire"
)

// Kind distinguishes the two report types the paper identifies.
type Kind int

// Report kinds.
const (
	// Type1 is sent when the viewer's playback reaches a choice question.
	Type1 Kind = 1
	// Type2 is additionally sent when the viewer picks the non-default
	// branch, cancelling the prefetched default segment.
	Type2 Kind = 2
)

// String names the kind as the paper does.
func (k Kind) String() string {
	switch k {
	case Type1:
		return "type-1"
	case Type2:
		return "type-2"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Report is the logical content of a state report.
type Report struct {
	Kind Kind `json:"-"`
	// Event mirrors the interactive player's event name.
	Event string `json:"event"`
	// MovieID identifies the title.
	MovieID string `json:"movieId"`
	// SessionID identifies the viewing session.
	SessionID string `json:"sessionId"`
	// ChoicePoint is the script segment whose question was reached.
	ChoicePoint string `json:"choicePointId"`
	// Selection, for type-2 reports, is the chosen (non-default) segment.
	Selection string `json:"selection,omitempty"`
	// PositionMs is the playback position in milliseconds.
	PositionMs int64 `json:"positionMs"`
	// State is an opaque base36 session-state blob; its length pads the
	// document to the profile-calibrated body size.
	State string `json:"state"`
}

// Builder mints size-calibrated reports for one session under one
// condition profile, or only sizes them. Serialization is an append-only
// buffer writer over cached struct plans: the invariant JSON skeleton of
// each report shape (event name, movie and session IDs, field
// punctuation) is escaped and measured once at construction, so a report
// appends the variable parts — choice point, selection, position digits,
// state blob — into a reused buffer without ever calling encoding/json.
// The bytes produced are exactly what json.Marshal(Report) emits (the
// property suite pins this), because the trace corpus format documents
// report bodies as real encoding/json documents.
//
// Each message kind has one sizing rule, which its minting form and its
// size-only form share. The size-only form draws the same size jitter,
// returns the length the minting form's body would have, and then skips
// the state blob's draws (one per character) with wire.RNG.Skip, so the
// two forms leave the RNG in the same place; it builds no bytes. The
// session simulator, which reads only lengths, calls the size-only forms.
type Builder struct {
	profile profiles.Profile
	movieID string
	session string
	rng     *wire.RNG
	buf     []byte // reused per-document scratch; outputs are exact-size copies
	type1   plan
	type2   plan
}

// plan caches one report shape's invariant skeleton: the byte prefix up
// to the choicePointId value and the number of fixed bytes a document of
// this shape costs before its variable parts are added.
type plan struct {
	// prefix is `{"event":"…","movieId":"…","sessionId":"…","choicePointId":"`.
	prefix []byte
	// fixed is the document length with empty choice point, selection,
	// position and state: len(prefix) + the punctuation appended around
	// the variable fields (selKey for type-2, posKey, stateTail).
	fixed int
	// selection marks the type-2 shape (a `","selection":"…` field
	// between the choice point and the position).
	selection bool
}

// Skeleton fragments shared by both report shapes.
var (
	selKey    = []byte(`","selection":"`)
	posKey    = []byte(`","positionMs":`)
	stateKey  = []byte(`,"state":"`)
	docClose  = []byte(`"}`)
	stateTail = len(stateKey) + len(docClose) // `,"state":""}` with empty blob
)

// NewBuilder returns a Builder. rng drives token generation and the small
// per-report size jitter; it must be the session's dedicated stream.
func NewBuilder(p profiles.Profile, movieID, sessionID string, rng *wire.RNG) *Builder {
	b := &Builder{profile: p, movieID: movieID, session: sessionID, rng: rng}
	b.type1 = newPlan("interactive.choicePointReached", movieID, sessionID, false)
	b.type2 = newPlan("interactive.selectionCommitted", movieID, sessionID, true)
	return b
}

// newPlan escapes and measures one report shape's skeleton.
func newPlan(event, movieID, sessionID string, selection bool) plan {
	var p []byte
	p = append(p, `{"event":"`...)
	p = appendEscaped(p, event)
	p = append(p, `","movieId":"`...)
	p = appendEscaped(p, movieID)
	p = append(p, `","sessionId":"`...)
	p = appendEscaped(p, sessionID)
	p = append(p, `","choicePointId":"`...)
	fixed := len(p) + len(posKey) + stateTail
	if selection {
		fixed += len(selKey)
	}
	return plan{prefix: p, fixed: fixed, selection: selection}
}

// Type1 builds the report sent when playback reaches the question at cp.
// The returned bytes are the exact plaintext the browser would hand to
// TLS (JSON body plus the browser's HTTP framing, represented by the
// calibrated total length).
func (b *Builder) Type1(cp script.SegmentID, positionMs int64) ([]byte, Report, error) {
	r, target := b.type1Report(cp, positionMs)
	body, err := b.encode(&b.type1, &r, target)
	return body, r, err
}

// Type1Size is the size-only form of Type1: it returns the length of the
// body Type1 would build and the same Report with State left empty, and
// leaves the RNG where Type1 would.
func (b *Builder) Type1Size(cp script.SegmentID, positionMs int64) (int, Report, error) {
	r, target := b.type1Report(cp, positionMs)
	n, err := b.size(&b.type1, &r, target)
	return n, r, err
}

// type1Report draws a type-1 report's body length and fills in its
// content, all but the State blob.
func (b *Builder) type1Report(cp script.SegmentID, positionMs int64) (Report, int) {
	target := b.profile.Type1BodyLen + b.jitter(b.profile.Type1Jitter)
	return Report{
		Kind:        Type1,
		Event:       "interactive.choicePointReached",
		MovieID:     b.movieID,
		SessionID:   b.session,
		ChoicePoint: string(cp),
		PositionMs:  positionMs,
	}, target
}

// Type2 builds the report sent when the viewer selects the non-default
// branch sel at choice point cp.
func (b *Builder) Type2(cp, sel script.SegmentID, positionMs int64) ([]byte, Report, error) {
	r, target := b.type2Report(cp, sel, positionMs)
	body, err := b.encode(&b.type2, &r, target)
	return body, r, err
}

// Type2Size is the size-only form of Type2: it returns the length of the
// body Type2 would build and the same Report with State left empty, and
// leaves the RNG where Type2 would.
func (b *Builder) Type2Size(cp, sel script.SegmentID, positionMs int64) (int, Report, error) {
	r, target := b.type2Report(cp, sel, positionMs)
	n, err := b.size(&b.type2, &r, target)
	return n, r, err
}

// type2Report draws a type-2 report's body length and fills in its
// content, all but the State blob.
func (b *Builder) type2Report(cp, sel script.SegmentID, positionMs int64) (Report, int) {
	target := b.profile.Type2BodyLen + b.jitter(b.profile.Type2Jitter)
	return Report{
		Kind:        Type2,
		Event:       "interactive.selectionCommitted",
		MovieID:     b.movieID,
		SessionID:   b.session,
		ChoicePoint: string(cp),
		Selection:   string(sel),
		PositionMs:  positionMs,
	}, target
}

// jitter returns a uniform draw in [-j, +j].
func (b *Builder) jitter(j int) int {
	if j <= 0 {
		return 0
	}
	return b.rng.IntRange(-j, j)
}

// need is the sizing rule of both report forms: the number of State
// characters that pad r's document through plan p to exactly target
// bytes. That is target less the plan's fixed bytes and the variable
// parts (escaped choice point and selection, position digits), measured
// in the reused buffer. A base past the target is an error.
func (b *Builder) need(p *plan, r *Report, target int) (int, error) {
	v := appendEscaped(b.buf[:0], r.ChoicePoint)
	if p.selection {
		v = appendEscaped(v, r.Selection)
	}
	v = strconv.AppendInt(v, r.PositionMs, 10)
	b.buf = v[:0]
	base := p.fixed + len(v)
	if base > target {
		return 0, fmt.Errorf("statejson: %s report base %d bytes exceeds target %d",
			r.Kind, base, target)
	}
	return target - base, nil
}

// encode renders r through its cached plan, with a State blob of need's
// length minted into the document, so the document is exactly target
// bytes long. r.State aliases a copy of the blob. The RNG draw sequence
// (jitter, then one draw per state character) is identical to the
// marshal-based oracle's.
func (b *Builder) encode(p *plan, r *Report, target int) ([]byte, error) {
	need, err := b.need(p, r, target)
	if err != nil {
		return nil, err
	}
	buf := append(b.buf[:0], p.prefix...)
	buf = appendEscaped(buf, r.ChoicePoint)
	if p.selection {
		buf = append(buf, selKey...)
		buf = appendEscaped(buf, r.Selection)
	}
	buf = append(buf, posKey...)
	buf = strconv.AppendInt(buf, r.PositionMs, 10)
	buf = append(buf, stateKey...)
	state := len(buf)
	buf = b.appendToken(buf, need)
	r.State = string(buf[state:])
	buf = append(buf, docClose...)
	b.buf = buf[:0]
	if len(buf) != target {
		return nil, fmt.Errorf("statejson: padded %s report is %d bytes, want %d",
			r.Kind, len(buf), target)
	}
	return append([]byte(nil), buf...), nil
}

// size is encode's size-only twin: the document is target bytes long, and
// the State characters that pad it are skipped, not drawn.
func (b *Builder) size(p *plan, r *Report, target int) (int, error) {
	need, err := b.need(p, r, target)
	if err != nil {
		return 0, err
	}
	b.rng.Skip(uint64(need))
	return target, nil
}

const tokenAlphabet = "abcdefghijklmnopqrstuvwxyz0123456789"

// appendToken appends n JSON-safe random characters (one RNG draw each).
func (b *Builder) appendToken(dst []byte, n int) []byte {
	for i := 0; i < n; i++ {
		dst = append(dst, tokenAlphabet[b.rng.Intn(len(tokenAlphabet))])
	}
	return dst
}

// token returns n JSON-safe random characters.
func (b *Builder) token(n int) string {
	if n <= 0 {
		return ""
	}
	return string(b.appendToken(make([]byte, 0, n), n))
}

// Parse decodes a report body and infers its kind from the event name,
// used by the socket server and by tests to verify ground truth.
func Parse(body []byte) (Report, error) {
	var r Report
	if err := json.Unmarshal(body, &r); err != nil {
		return Report{}, fmt.Errorf("statejson: parse: %w", err)
	}
	switch r.Event {
	case "interactive.choicePointReached":
		r.Kind = Type1
	case "interactive.selectionCommitted":
		r.Kind = Type2
	default:
		return Report{}, fmt.Errorf("statejson: unknown event %q", r.Event)
	}
	return r, nil
}

// Opaque body keys: a request or telemetry body is key, a token blob and
// docClose.
const (
	requestKey   = `{"req":"`
	telemetryKey = `{"tel":"`
)

// RequestBody synthesizes an ordinary chunk-request message of the
// profile's request size class ("others" in Figure 2).
func (b *Builder) RequestBody() []byte {
	return b.opaqueBody(requestKey, b.requestTokens())
}

// RequestSize is the size-only form of RequestBody: it returns the length
// of the body RequestBody would build and leaves the RNG where
// RequestBody would.
func (b *Builder) RequestSize() int {
	return b.opaqueSize(requestKey, b.requestTokens())
}

// requestTokens draws a request's length, floored at 16 bytes, and
// returns the length of its token blob.
func (b *Builder) requestTokens() int {
	return opaqueTokens(max(b.profile.RequestLen+b.jitter(b.profile.RequestJitter), 16))
}

// TelemetryBody synthesizes a periodic telemetry upload (large "others").
func (b *Builder) TelemetryBody() []byte {
	return b.opaqueBody(telemetryKey, b.telemetryTokens())
}

// TelemetrySize is the size-only form of TelemetryBody: it returns the
// length of the body TelemetryBody would build and leaves the RNG where
// TelemetryBody would.
func (b *Builder) TelemetrySize() int {
	return b.opaqueSize(telemetryKey, b.telemetryTokens())
}

// telemetryTokens draws a telemetry upload's length and returns the
// length of its token blob.
func (b *Builder) telemetryTokens() int {
	return opaqueTokens(b.profile.TelemetryLen + b.jitter(b.profile.TelemetryJitter))
}

// opaqueTokens is the token blob of an opaque body drawn at n bytes:
// n-11 characters, none below 11.
func opaqueTokens(n int) int { return max(n-11, 0) }

// opaqueBody appends key + tokens chars + `"}` through the reused buffer.
func (b *Builder) opaqueBody(key string, tokens int) []byte {
	buf := append(b.buf[:0], key...)
	buf = b.appendToken(buf, tokens)
	buf = append(buf, docClose...)
	b.buf = buf[:0]
	return append([]byte(nil), buf...)
}

// opaqueSize is opaqueBody's size-only twin: the same length, with the
// tokens' draws skipped.
func (b *Builder) opaqueSize(key string, tokens int) int {
	b.rng.Skip(uint64(tokens))
	return len(key) + tokens + len(docClose)
}

// appendEscaped appends s as the inside of a JSON string literal, byte
// for byte as encoding/json (escapeHTML mode, the json.Marshal default)
// renders it: short escapes for \b \f \n \r \t, \u00xx for the other
// control bytes, \u003c/\u003e/\u0026 for the HTML-sensitive
// characters, U+FFFD for invalid UTF-8 bytes and \u2028/\u2029 for the
// JS line separators. TestAppendEscapedMatchesEncodingJSON pins the
// equivalence.
func appendEscaped(dst []byte, s string) []byte {
	const hexDigits = "0123456789abcdef"
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i++
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
			i += size
			start = i
			continue
		}
		i += size
	}
	return append(dst, s[start:]...)
}

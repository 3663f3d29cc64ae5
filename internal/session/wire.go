package session

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/quicrec"
	"repro/internal/tlsrec"
)

// Wire is the stack a session speaks on the wire and the one
// length-shaping policy in force: TLS records over TCP (1.2, or 1.3 with
// an optional RFC 8446 padding policy), or QUIC v1 datagrams over UDP
// (with a datagram sizing policy). The zero value is TLS 1.2 over TCP,
// the stack the paper measured in 2019.
//
// Its String form is the label the corpus manifest records, the -wire
// flag of wmsession, wmdataset and wmattack, and ParseWire's input:
//
//	tls1.2
//	tls1.3 | tls1.3+pad-to-N | tls1.3+pad-random-N
//	quic | quic+default-1350 | quic+fixed-N | quic+pad-full-N | quic+pad-random-N+K
//
// with 0 < N <= 16384 for TLS padding, 0 < N <= 65527 for QUIC
// datagrams and 0 <= K <= 16. A policy shapes only the layer it belongs
// to, so Run rejects padding under TLS 1.2 or QUIC and sizing under TCP
// rather than ignore it.
type Wire struct {
	// Transport selects TLS records over TCP (the zero value) or QUIC
	// datagrams over UDP. QUIC replaces the record layer: record
	// boundaries are sealed inside 1-RTT packets, and the condition
	// profile shifts for HTTP/3 framing (profiles.Profile.ForTransport).
	Transport quicrec.Transport
	// Record is the TLS record-layer generation both directions speak
	// over TCP. RecordTLS13 swaps the condition profile's suite for its
	// 1.3 equivalent (profiles.Profile.ForVersion) and synthesizes RFC
	// 8446 framing: hellos in the clear, a dummy ChangeCipherSpec, and
	// every later record as outer application_data. QUIC has no record
	// layer and requires the zero value.
	Record tlsrec.RecordVersion
	// Padding is the RFC 8446 record-padding policy applied to every
	// protected record in both directions (TLS 1.3 only). Random
	// policies draw from dedicated seeded streams, so lean and full runs
	// stay byte-identical.
	Padding tlsrec.PaddingPolicy
	// Sizing is the QUIC 1-RTT datagram sizing policy (QUIC only); the
	// zero value packs datagrams up to the default 1350-byte cap.
	Sizing quicrec.SizingPolicy
}

// The largest sizes a Wire may name; ParseWire and Run reject larger
// ones, which no session could run.
const (
	// maxPadding bounds a TLS 1.3 padding parameter at a record's 2^14
	// bytes of plaintext and padding (RFC 8446 §5.4); the encoder clamps
	// every pad to the record limit anyway.
	maxPadding = 1 << 14
	// maxDatagram bounds a QUIC datagram size: the largest UDP payload a
	// QUIC endpoint may accept (RFC 9000 §18.2).
	maxDatagram = 65527
	// maxDummies bounds pad-random's dummy datagrams per write, well past
	// the 2 the shaping sweep uses.
	maxDummies = 16
)

// String renders the wire label: the stack, then "+policy" when a
// shaping policy is in force. QUIC always names its sizing policy, the
// default included ("quic+default-1350").
func (w Wire) String() string {
	if w.Transport == quicrec.TransportQUIC {
		return "quic+" + w.Sizing.Label()
	}
	if w.Padding.Mode == tlsrec.PadNone {
		return w.Record.String()
	}
	return w.Record.String() + "+" + w.Padding.String()
}

// Envelope returns the most bytes the policy in force can add to one
// observable unit beyond what any training example shows: a record under
// TLS 1.3 padding, a write's datagram burst under QUIC sizing. An
// interval-band trainer widens its learned bands by this much.
func (w Wire) Envelope() int {
	if w.Transport == quicrec.TransportQUIC {
		return w.Sizing.Envelope()
	}
	return w.Padding.Envelope()
}

// ParseWire is String's inverse. It also accepts "quic" for the default
// sizing policy, and rejects any label whose policy does not fit its
// stack or whose size is not positive or above its bound.
func ParseWire(s string) (Wire, error) {
	stack, policy, shaped := strings.Cut(s, "+")
	var w Wire
	ok := true
	switch stack {
	case "tls1.2", "tls1.3":
		if stack == "tls1.3" {
			w.Record = tlsrec.RecordTLS13
		}
		if shaped {
			w.Padding, ok = parsePadding(policy)
		}
	case "quic":
		w.Transport = quicrec.TransportQUIC
		if shaped {
			w.Sizing, ok = parseSizing(policy)
		}
	default:
		ok = false
	}
	if !ok {
		return Wire{}, fmt.Errorf("session: unknown wire %q (want tls1.2, tls1.3[+pad-to-N|+pad-random-N] "+
			"or quic[+default-1350|+fixed-N|+pad-full-N|+pad-random-N+K])", s)
	}
	if err := w.validate(); err != nil {
		return Wire{}, fmt.Errorf("session: wire %q: %w", s, err)
	}
	return w, nil
}

// parsePadding parses a TLS 1.3 policy suffix: pad-to-N or pad-random-N.
func parsePadding(s string) (tlsrec.PaddingPolicy, bool) {
	if n, ok := labelInt(strings.CutPrefix(s, "pad-to-")); ok {
		return tlsrec.PadToMultipleOf(n), true
	}
	if n, ok := labelInt(strings.CutPrefix(s, "pad-random-")); ok {
		return tlsrec.PadRandomUpTo(n), true
	}
	return tlsrec.PaddingPolicy{}, false
}

// parseSizing parses a QUIC policy suffix: default-1350, fixed-N,
// pad-full-N or pad-random-N+K.
func parseSizing(s string) (quicrec.SizingPolicy, bool) {
	if s == (quicrec.SizingPolicy{}).Label() {
		return quicrec.SizingPolicy{}, true
	}
	if n, ok := labelInt(strings.CutPrefix(s, "fixed-")); ok {
		return quicrec.Fixed(n), true
	}
	if n, ok := labelInt(strings.CutPrefix(s, "pad-full-")); ok {
		return quicrec.PadFull(n), true
	}
	if rest, ok := strings.CutPrefix(s, "pad-random-"); ok {
		ns, ks, ok := strings.Cut(rest, "+")
		n, okN := labelInt(ns, ok)
		k, okK := labelInt(ks, ok)
		if okN && okK {
			return quicrec.PadRandom(n, k), true
		}
	}
	return quicrec.SizingPolicy{}, false
}

// labelInt parses a label's decimal field, accepting only the spelling
// String renders (no sign, no leading zeros). It takes CutPrefix's
// results directly; found false rejects.
func labelInt(s string, found bool) (int, bool) {
	n, err := strconv.Atoi(s)
	return n, found && err == nil && strconv.Itoa(n) == s
}

// validate rejects a Wire whose policy does not fit its stack, whose
// policy parameters String could not render back to the same value, or
// whose sizes exceed maxPadding, maxDatagram or maxDummies.
func (w Wire) validate() error {
	tcp := w.Transport == quicrec.TransportTCP
	switch {
	case !tcp && w.Transport != quicrec.TransportQUIC:
		return fmt.Errorf("unknown transport %d", int(w.Transport))
	case w.Record != tlsrec.RecordTLS12 && w.Record != tlsrec.RecordTLS13:
		return fmt.Errorf("unknown record layer %v", w.Record)
	case !tcp && w.Record != tlsrec.RecordTLS12:
		return fmt.Errorf("QUIC has no TLS record layer to set to %v", w.Record)
	case w.Padding != (tlsrec.PaddingPolicy{}) && (!tcp || w.Record != tlsrec.RecordTLS13):
		return fmt.Errorf("record padding %v needs the tls1.3 record layer (TLS 1.2 has none; QUIC sizes datagrams)",
			w.Padding)
	case w.Sizing != (quicrec.SizingPolicy{}) && tcp:
		return fmt.Errorf("datagram sizing %s needs the quic transport (TCP stacks pad records)",
			w.Sizing.Label())
	}
	var ok bool
	switch p := w.Padding; p.Mode {
	case tlsrec.PadNone:
		ok = p.Param == 0
	case tlsrec.PadToMultiple, tlsrec.PadRandom:
		ok = p.Param > 0 && p.Param <= maxPadding
	}
	if !ok {
		return fmt.Errorf("invalid record padding %+v (pad-to and pad-random need a size in 1..%d; none takes none)",
			w.Padding, maxPadding)
	}
	switch p := w.Sizing; p.Mode {
	case quicrec.SizeDefault:
		ok = p.N == 0 && p.K == 0
	case quicrec.SizeFixed, quicrec.SizePadFull:
		ok = p.N > 0 && p.N <= maxDatagram && p.K == 0
	case quicrec.SizePadRandom:
		ok = p.N > 0 && p.N <= maxDatagram && p.K >= 0 && p.K <= maxDummies
	default:
		ok = false
	}
	if !ok {
		return fmt.Errorf("invalid datagram sizing %+v (fixed, pad-full and pad-random need a size in 1..%d, "+
			"pad-random a dummy bound in 0..%d; the default takes neither)", w.Sizing, maxDatagram, maxDummies)
	}
	return nil
}

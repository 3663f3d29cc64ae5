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
// (with a datagram sizing policy). A TCP stack may instead shape its
// state reports, the paper's §VI countermeasures (Reports). The zero
// value is TLS 1.2 over TCP, the stack the paper measured in 2019.
//
// Its String form is the label the corpus manifest records, the -wire
// flag of wmsession, wmdataset and wmattack, and ParseWire's input:
//
//	tls1.2 | tls1.2+R
//	tls1.3 | tls1.3+pad-to-N | tls1.3+pad-random-N | tls1.3+R
//	quic | quic+default-1350 | quic+fixed-N | quic+pad-full-N | quic+pad-random-N+K
//
// where R is a report policy, reports-pad-N, reports-split-N or
// reports-compress-P, with 0 < N <= 16384 for TLS padding and report
// sizes, 0 < P <= 100, 0 < N <= 65527 for QUIC datagrams and
// 0 <= K <= 16. A policy shapes only the layer it belongs to, so Run
// rejects padding under TLS 1.2 or QUIC, sizing under TCP and a report
// policy under QUIC rather than ignore it, and one policy is in force at
// a time.
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
	// Reports is the state-report policy (TCP only, and never together
	// with Padding): the size transform applied to each type-1 and type-2
	// write before encryption.
	Reports ReportPolicy
}

// ReportMode selects how a session shapes its state reports.
type ReportMode int

// Report modes: the three JSON transforms of the paper's §VI.
const (
	// ReportsNone writes every report at its natural size.
	ReportsNone ReportMode = iota
	// ReportsPad pads each report's plaintext up to Param bytes, erasing
	// the length difference between type-1 and type-2; a longer report
	// goes out unshrunk.
	ReportsPad
	// ReportsSplit writes each report as consecutive writes of at most
	// Param bytes, so its records blend with request traffic.
	ReportsSplit
	// ReportsCompress models gzip of the JSON body: the report keeps
	// Param percent of its bytes, give or take 40 bytes of jitter hashed
	// from its size, and at least 32.
	ReportsCompress
)

// ReportPolicy is the paper's §VI countermeasure on the state-report
// JSON. It changes the plaintext size of type-1 and type-2 writes and of
// nothing else, as a deterministic function of the write's label and
// size.
type ReportPolicy struct {
	// Mode selects the transform.
	Mode ReportMode
	// Param is the pad target or split size in bytes (ReportsPad,
	// ReportsSplit), or the percentage kept (ReportsCompress).
	Param int
}

// String renders the policy the way wire labels spell it:
// "reports-pad-4096", "reports-split-1200", "reports-compress-55", or
// "none".
func (p ReportPolicy) String() string {
	switch p.Mode {
	case ReportsPad:
		return fmt.Sprintf("reports-pad-%d", p.Param)
	case ReportsSplit:
		return fmt.Sprintf("reports-split-%d", p.Param)
	case ReportsCompress:
		return fmt.Sprintf("reports-compress-%d", p.Param)
	default:
		return "none"
	}
}

// compressJitter is the size noise ReportsCompress adds, in bytes either
// way, so equal inputs stop producing equal outputs.
const compressJitter = 40

// appendSizes appends to dst the plaintext sizes a write of plain bytes
// under label goes out as: plain itself unless the write is a report,
// else the policy's transform of it.
func (p ReportPolicy) appendSizes(dst []int, label WriteLabel, plain int) []int {
	if label != LabelType1 && label != LabelType2 {
		return append(dst, plain)
	}
	switch p.Mode {
	case ReportsPad:
		return append(dst, max(plain, p.Param))
	case ReportsSplit:
		for ; plain > p.Param; plain -= p.Param {
			dst = append(dst, p.Param)
		}
	case ReportsCompress:
		// A hash of the plain size drives the jitter, so sessions stay
		// reproducible.
		h := uint64(plain)*0x9e3779b97f4a7c15 + 0x243f6a8885a308d3
		h ^= h >> 29
		plain = max(plain*p.Param/100+int(h%(2*compressJitter+1))-compressJitter, 32)
	}
	return append(dst, plain)
}

// The largest sizes a Wire may name; ParseWire and Run reject larger
// ones, which no session could run.
const (
	// maxPadding bounds a TLS 1.3 padding parameter at a record's 2^14
	// bytes of plaintext and padding (RFC 8446 §5.4); the encoder clamps
	// every pad to the record limit anyway. It bounds a report policy's
	// pad target and split size too: one record's plaintext.
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
	label := w.Record.String()
	if w.Padding.Mode != tlsrec.PadNone {
		label += "+" + w.Padding.String()
	}
	if w.Reports.Mode != ReportsNone {
		label += "+" + w.Reports.String()
	}
	return label
}

// Envelope returns the most bytes the policy in force can add to one
// observable unit beyond what any training example shows: a record under
// TLS 1.3 padding, a write's datagram burst under QUIC sizing. An
// interval-band trainer widens its learned bands by this much. A report
// policy's is 0: it is a deterministic function of each write's label
// and size, so training examples show every size it produces.
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
			if w.Padding, ok = parsePadding(policy); !ok {
				w.Reports, ok = parseReports(policy)
			}
		}
	case "quic":
		w.Transport = quicrec.TransportQUIC
		if shaped {
			if w.Sizing, ok = parseSizing(policy); !ok {
				w.Reports, ok = parseReports(policy)
			}
		}
	default:
		ok = false
	}
	if !ok {
		return Wire{}, fmt.Errorf("session: unknown wire %q (want tls1.2[+R], tls1.3[+pad-to-N|+pad-random-N|+R] "+
			"or quic[+default-1350|+fixed-N|+pad-full-N|+pad-random-N+K], "+
			"where R is reports-pad-N, reports-split-N or reports-compress-P)", s)
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

// parseReports parses a report policy suffix: reports-pad-N,
// reports-split-N or reports-compress-P.
func parseReports(s string) (ReportPolicy, bool) {
	if n, ok := labelInt(strings.CutPrefix(s, "reports-pad-")); ok {
		return ReportPolicy{Mode: ReportsPad, Param: n}, true
	}
	if n, ok := labelInt(strings.CutPrefix(s, "reports-split-")); ok {
		return ReportPolicy{Mode: ReportsSplit, Param: n}, true
	}
	if n, ok := labelInt(strings.CutPrefix(s, "reports-compress-")); ok {
		return ReportPolicy{Mode: ReportsCompress, Param: n}, true
	}
	return ReportPolicy{}, false
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

// validate rejects a Wire whose policy does not fit its stack, that puts
// a report policy and record padding in force together, whose policy
// parameters String could not render back to the same value, or whose
// sizes exceed maxPadding, maxDatagram, maxDummies or 100 percent.
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
	case w.Reports != (ReportPolicy{}) && !tcp:
		return fmt.Errorf("report policy %v needs a TCP stack (QUIC sizes datagrams)", w.Reports)
	case w.Reports != (ReportPolicy{}) && w.Padding != (tlsrec.PaddingPolicy{}):
		return fmt.Errorf("report policy %v and record padding %v: one shaping policy is in force at a time",
			w.Reports, w.Padding)
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
	switch p := w.Reports; p.Mode {
	case ReportsNone:
		ok = p.Param == 0
	case ReportsPad, ReportsSplit:
		ok = p.Param > 0 && p.Param <= maxPadding
	case ReportsCompress:
		ok = p.Param > 0 && p.Param <= 100
	default:
		ok = false
	}
	if !ok {
		return fmt.Errorf("invalid report policy %+v (reports-pad and reports-split need a size in 1..%d, "+
			"reports-compress a percentage in 1..100; none takes none)", w.Reports, maxPadding)
	}
	return nil
}

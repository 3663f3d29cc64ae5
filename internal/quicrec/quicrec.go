// Package quicrec synthesizes the QUIC datagram layer the way tlsrec
// synthesizes the TLS record layer: deterministic wire bytes whose
// *lengths and timings* carry the side channel, with the cryptography
// modeled rather than performed. A Conn writes genuine-looking QUIC
// packets — long-header Initial/Handshake packets with version and
// variable-length connection IDs, coalesced into datagrams; short-header
// 1-RTT packets whose protected payloads are opaque bytes — and returns
// one Datagram descriptor per UDP datagram emitted, the unit an on-path
// eavesdropper can see.
//
// That unit is the whole point. Under TLS the attack reads cleartext
// record headers; under QUIC every framing boundary is encrypted, so the
// only observables are datagram sizes and inter-arrival times. The
// attack side (internal/attack's burst segmenter) groups datagrams into
// bursts by inter-arrival gap and classifies burst byte totals with the
// same interval-band machinery that classified record lengths.
//
// Everything is deterministic under explicit wire.RNG streams: a Conn
// given the same rng produces identical datagrams, and a Conn writing to
// a discard Writer consumes the identical rng stream (wire.Writer.Fill
// advances the rng even when discarding), so lean simulations equal full
// ones byte-for-byte in every retained observable.
package quicrec

import (
	"fmt"
	"time"

	"repro/internal/wire"
)

// Transport selects the wire transport a simulated session speaks. The
// zero value is TCP/TLS — the paper's stack and the historical default —
// so every existing configuration keeps its meaning.
type Transport int

const (
	// TransportTCP is TLS records over TCP (the zero value).
	TransportTCP Transport = iota
	// TransportQUIC is QUIC v1 datagrams over UDP: no cleartext record
	// boundaries, HTTP/3-style framing inside opaque 1-RTT packets.
	TransportQUIC
)

// String renders the transport for labels and reports.
func (t Transport) String() string {
	if t == TransportQUIC {
		return "quic"
	}
	return "tcp"
}

// Datagram describes one UDP datagram a Conn emitted: the observable
// unit of a QUIC conversation. Size is the full UDP payload length
// (QUIC packet bytes, coalesced packets included); Packets counts the
// QUIC packets coalesced inside; Long marks datagrams that begin with a
// long-header packet (handshake flights, visible as such on the wire).
type Datagram struct {
	Size    int
	Packets int
	Long    bool
	Time    time.Time
	// Offset is the datagram's byte offset in the direction's stream of
	// datagram payloads (set by the caller that owns the stream writer).
	Offset int64
}

// SizingMode enumerates the datagram-sizing policies a sender can apply
// to 1-RTT traffic — the QUIC analogue of tlsrec's record padding.
type SizingMode int

const (
	// SizeDefault packs application data into datagrams up to the
	// default max size, the final datagram sized to its content.
	SizeDefault SizingMode = iota
	// SizeFixed is SizeDefault with a non-default max datagram size.
	SizeFixed
	// SizePadFull pads every 1-RTT datagram to the max size, so the
	// only signal left is the datagram *count* per burst.
	SizePadFull
	// SizePadRandom pads every datagram full and appends a seeded
	// uniform 0..K extra full-size dummy datagrams per write, smearing
	// the burst byte total across K+1 count buckets.
	SizePadRandom
)

// SizingPolicy is a 1-RTT datagram sizing policy: the mode plus its
// parameters. The zero value is the default policy.
type SizingPolicy struct {
	Mode SizingMode
	// N is the max datagram size (0 = DefaultMaxDatagram).
	N int
	// K is SizePadRandom's dummy-datagram bound.
	K int
}

// Fixed returns the policy that caps datagrams at n bytes.
func Fixed(n int) SizingPolicy { return SizingPolicy{Mode: SizeFixed, N: n} }

// PadFull returns the policy that pads every 1-RTT datagram to n bytes.
func PadFull(n int) SizingPolicy { return SizingPolicy{Mode: SizePadFull, N: n} }

// PadRandom returns the policy that pads datagrams to n bytes and
// appends a seeded uniform 0..k extra dummy datagrams per write.
func PadRandom(n, k int) SizingPolicy { return SizingPolicy{Mode: SizePadRandom, N: n, K: k} }

// DefaultMaxDatagram is the default QUIC max datagram size: a common
// post-handshake PMTU-probed value on 1500-MTU paths.
const DefaultMaxDatagram = 1350

// MinInitialDatagram is RFC 9000's minimum size for datagrams carrying
// Initial packets; clients pad their first flight up to it.
const MinInitialDatagram = 1200

// MaxDatagram returns the policy's datagram size cap.
func (p SizingPolicy) MaxDatagram() int {
	if p.N > 0 {
		return p.N
	}
	return DefaultMaxDatagram
}

// Envelope returns the maximum number of bytes the policy can add to a
// write's burst beyond the tightest packing — the amount an interval-band
// trainer must widen its learned bands by, exactly as
// tlsrec.PaddingPolicy.Envelope does for record padding. Deterministic
// padding (SizePadFull) adds the same bytes to every instance of a given
// write size, so its envelope is zero; only the random dummy datagrams
// of SizePadRandom smear a class across a range.
func (p SizingPolicy) Envelope() int {
	if p.Mode == SizePadRandom {
		return p.K * p.MaxDatagram()
	}
	return 0
}

// Label renders the policy the way experiment tables and wire labels
// spell it: "default-1350", "fixed-1200", "pad-random-1350+2".
func (p SizingPolicy) Label() string {
	switch p.Mode {
	case SizeFixed:
		return fmt.Sprintf("fixed-%d", p.MaxDatagram())
	case SizePadFull:
		return fmt.Sprintf("pad-full-%d", p.MaxDatagram())
	case SizePadRandom:
		return fmt.Sprintf("pad-random-%d+%d", p.MaxDatagram(), p.K)
	default:
		return fmt.Sprintf("default-%d", p.MaxDatagram())
	}
}

// Params configures a Conn.
type Params struct {
	// DCIDLen is the destination connection ID length carried in this
	// direction's short headers (0 = the default 8; QUIC allows 0..20,
	// and the length is invisible in short headers — the receiver knows
	// it, the eavesdropper guesses).
	DCIDLen int
	// Sizing is the 1-RTT datagram sizing policy.
	Sizing SizingPolicy
	// Spacing is the serialization gap between consecutive datagrams of
	// one write (0 = the default 500µs — far inside any burst gap).
	Spacing time.Duration
}

const defaultDCIDLen = 8

func (p Params) withDefaults() Params {
	if p.DCIDLen <= 0 {
		p.DCIDLen = defaultDCIDLen
	}
	if p.DCIDLen > 20 {
		p.DCIDLen = 20
	}
	if p.Spacing <= 0 {
		p.Spacing = 500 * time.Microsecond
	}
	return p
}

// shortOverhead is the per-packet overhead of a 1-RTT short-header
// packet beyond the DCID: flags byte, 2-byte packet number, 16-byte
// AEAD tag.
const shortOverhead = 1 + 2 + 16

// PacketOverhead returns the bytes a single 1-RTT packet adds around its
// plaintext under these params — the QUIC analogue of a cipher suite's
// CiphertextLen arithmetic.
func (p Params) PacketOverhead() int {
	return shortOverhead + p.withDefaults().DCIDLen
}

// Conn is one direction of a QUIC connection: it seals that direction's
// packets into a wire.Writer and describes every datagram it emits. The
// mirror of tlsrec.Encryptor.
type Conn struct {
	params Params
	server bool
	rng    *wire.RNG
	dcid   []byte
	scid   []byte
	pn     uint64
}

// NewConn returns a directional QUIC sealer. rng seeds the connection
// IDs, the opaque protected payloads and any randomized sizing policy; a
// nil rng zero-fills all of them (fine for callers that only consume
// lengths and timings).
func NewConn(p Params, server bool, rng *wire.RNG) *Conn {
	p = p.withDefaults()
	c := &Conn{params: p, server: server, rng: rng}
	c.dcid = make([]byte, p.DCIDLen)
	c.scid = make([]byte, p.DCIDLen)
	if rng != nil {
		fillBytes(c.dcid, rng)
		fillBytes(c.scid, rng)
	}
	return c
}

func fillBytes(b []byte, rng *wire.RNG) {
	for i := range b {
		b[i] = byte(rng.Uint64())
	}
}

// fill writes n opaque protected-payload bytes.
func (c *Conn) fill(w *wire.Writer, n int) {
	if c.rng != nil {
		w.Fill(n, c.rng)
	} else {
		w.Zero(n)
	}
}

// varint16 appends a QUIC 2-byte variable-length integer (values up to
// 16383 — every length this package emits fits).
func varint16(w *wire.Writer, v int) {
	w.U16(uint16(v) | 0x4000)
}

// Long-header packet types (RFC 9000 §17.2), pre-shifted into the first
// byte: fixed bit set, long form.
const (
	longInitial   = 0xc0
	longHandshake = 0xe0
)

// appendLong writes one long-header packet carrying payloadLen protected
// bytes and returns the packet's total size.
func (c *Conn) appendLong(w *wire.Writer, typeByte byte, payloadLen int) int {
	start := w.Len()
	w.U8(typeByte | 0x01) // 2-byte packet number length
	w.U32(1)              // QUIC v1
	w.U8(uint8(len(c.dcid)))
	w.Write(c.dcid)
	w.U8(uint8(len(c.scid)))
	w.Write(c.scid)
	if typeByte == longInitial {
		w.U8(0) // empty token
	}
	varint16(w, payloadLen+2) // length covers packet number + payload
	w.U16(uint16(c.pn))
	c.pn++
	c.fill(w, payloadLen)
	return w.Len() - start
}

// appendShort writes one 1-RTT short-header packet whose total size is
// exactly pktLen (header + protected payload + tag) and stamps it into
// the datagram descriptor.
func (c *Conn) appendShort(w *wire.Writer, pktLen int) {
	w.U8(0x40 | 0x01) // short form, fixed bit, 2-byte packet number
	w.Write(c.dcid)
	w.U16(uint16(c.pn))
	c.pn++
	// Everything after the packet number — protected payload and AEAD
	// tag alike — is opaque bytes to the eavesdropper.
	c.fill(w, pktLen-3-len(c.dcid))
}

// longOverhead is a long-header packet's framing cost beyond its
// protected payload: flags + version + two CID length bytes + both CIDs
// + token length (Initial only) + 2-byte length + 2-byte packet number.
func (c *Conn) longOverhead(typeByte byte) int {
	n := 1 + 4 + 1 + len(c.dcid) + 1 + len(c.scid) + 2 + 2
	if typeByte == longInitial {
		n++
	}
	return n
}

// HandshakeTranscript writes the direction's handshake flight:
// transcriptLen bytes of CRYPTO payload sealed into long-header packets,
// coalesced into datagrams up to the sizing cap (the server's small
// Initial shares its datagram with the first Handshake packet, the shape
// real QUIC stacks emit). The client's Initial datagram is padded up to
// MinInitialDatagram as RFC 9000 requires. The returned datagrams carry
// Long=true — the handshake is the one phase an eavesdropper can still
// recognize structurally.
func (c *Conn) HandshakeTranscript(w *wire.Writer, ts time.Time, transcriptLen int) []Datagram {
	maxDG := c.params.Sizing.MaxDatagram()
	var out []Datagram
	cur := Datagram{Long: true}
	flush := func() {
		if cur.Packets > 0 {
			cur.Time = ts.Add(time.Duration(len(out)) * c.params.Spacing)
			out = append(out, cur)
			cur = Datagram{Long: true}
		}
	}
	typeByte := byte(longInitial)
	for remaining := transcriptLen; remaining > 0; {
		chunk := remaining
		// The server Initial carries only the ACK and the ServerHello
		// head; the bulk of the flight rides in Handshake packets
		// coalesced behind it.
		if typeByte == longInitial && c.server && chunk > 160 {
			chunk = 160
		}
		if room := maxDG - cur.Size - c.longOverhead(typeByte) - 16; chunk > room {
			if room < 64 && cur.Packets > 0 {
				// Not worth splitting a sliver into this datagram.
				flush()
				continue
			}
			if room < 1 {
				room = 1 // degenerate cap: emit minimal packets
			}
			chunk = room
		}
		remaining -= chunk
		cur.Size += c.appendLong(w, typeByte, chunk+16)
		cur.Packets++
		typeByte = longHandshake
	}
	if !c.server && len(out) == 0 && cur.Packets > 0 && cur.Size < MinInitialDatagram {
		// PADDING frames bring the client's first flight to 1200 bytes.
		w.Zero(MinInitialDatagram - cur.Size)
		cur.Size = MinInitialDatagram
	}
	flush()
	return out
}

// WriteApplicationData seals plainLen bytes of 1-RTT application data
// under the sizing policy and returns one descriptor per datagram
// emitted — the write's burst, in capture terms. Dummy datagrams added
// by SizePadRandom are included: the eavesdropper cannot tell them from
// data.
func (c *Conn) WriteApplicationData(w *wire.Writer, ts time.Time, plainLen int) []Datagram {
	p := c.params
	maxDG := p.Sizing.MaxDatagram()
	capacity := maxDG - shortOverhead - len(c.dcid)
	if capacity < 1 {
		capacity = 1
	}
	padFull := p.Sizing.Mode == SizePadFull || p.Sizing.Mode == SizePadRandom
	var out []Datagram
	emit := func(chunk int) {
		pktLen := chunk + shortOverhead + len(c.dcid)
		if padFull {
			pktLen = maxDG
		}
		c.appendShort(w, pktLen)
		out = append(out, Datagram{
			Size: pktLen, Packets: 1,
			Time: ts.Add(time.Duration(len(out)) * p.Spacing),
		})
	}
	for remaining := plainLen; remaining > 0; {
		chunk := remaining
		if chunk > capacity {
			chunk = capacity
		}
		remaining -= chunk
		emit(chunk)
	}
	if plainLen <= 0 {
		emit(0)
	}
	if p.Sizing.Mode == SizePadRandom && c.rng != nil && p.Sizing.K > 0 {
		for extra := c.rng.IntRange(0, p.Sizing.K); extra > 0; extra-- {
			emit(capacity)
		}
	}
	return out
}

// WriteAck seals a small 1-RTT packet carrying only an ACK frame — the
// chatter half of a QUIC conversation. Ack datagrams sit far below any
// application write and carry no choice signal; the attack's burst
// segmenter filters them by size.
func (c *Conn) WriteAck(w *wire.Writer, ts time.Time) Datagram {
	ackFrame := 17
	if c.rng != nil {
		ackFrame += c.rng.IntRange(0, 6) // ack-range count varies
	}
	pktLen := ackFrame + shortOverhead + len(c.dcid)
	c.appendShort(w, pktLen)
	return Datagram{Size: pktLen, Packets: 1, Time: ts}
}

// Sniff reports whether a UDP payload plausibly begins a QUIC v1 packet:
// the fixed bit (0x40) must be set in the first byte. The monitor uses
// it to deaden non-QUIC UDP flows on their first datagram.
func Sniff(payload []byte) bool {
	return len(payload) > 0 && payload[0]&0x40 != 0
}

// IsLongHeader reports whether a QUIC packet byte begins a long-header
// packet — the handshake-phase framing that is still structurally
// visible on the wire, version and connection IDs included.
func IsLongHeader(b byte) bool { return b&0x80 != 0 }

// ParseLongHeader extracts the cleartext fields of a long-header packet:
// QUIC version and destination connection ID length. Returns ok=false on
// anything too short or not long-form.
func ParseLongHeader(payload []byte) (version uint32, dcidLen int, ok bool) {
	if len(payload) < 6 || !IsLongHeader(payload[0]) {
		return 0, 0, false
	}
	r := wire.NewReader(payload[1:])
	version = r.U32()
	dcidLen = int(r.U8())
	if r.Err() != nil || dcidLen > 20 {
		return 0, 0, false
	}
	return version, dcidLen, true
}

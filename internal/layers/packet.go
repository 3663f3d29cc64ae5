package layers

import (
	"fmt"
	"net/netip"
	"time"

	"repro/internal/wire"
)

// FlowKey identifies one direction of a transport conversation. Proto
// distinguishes a UDP 5-tuple from a TCP one sharing the same addresses
// and ports; its zero value means TCP, so every key built before UDP
// support existed keeps its meaning (and its map bucket).
type FlowKey struct {
	SrcAddr, DstAddr netip.Addr
	SrcPort, DstPort uint16
	Proto            IPProtocol
}

// Reverse returns the key for the opposite direction.
func (k FlowKey) Reverse() FlowKey {
	return FlowKey{SrcAddr: k.DstAddr, DstAddr: k.SrcAddr,
		SrcPort: k.DstPort, DstPort: k.SrcPort, Proto: k.Proto}
}

// Canonical returns the direction-independent form of the key (the lesser
// endpoint first) plus whether the receiver was already canonical, so both
// directions of a conversation map to the same bucket.
func (k FlowKey) Canonical() (FlowKey, bool) {
	if k.SrcAddr.Compare(k.DstAddr) < 0 ||
		(k.SrcAddr == k.DstAddr && k.SrcPort <= k.DstPort) {
		return k, true
	}
	return k.Reverse(), false
}

// String renders "src:port > dst:port", with a "udp" marker for UDP
// flows (TCP, the historical default, stays unadorned so existing
// rendered output is unchanged).
func (k FlowKey) String() string {
	if k.Proto == IPProtocolUDP {
		return fmt.Sprintf("udp %s:%d > %s:%d", k.SrcAddr, k.SrcPort, k.DstAddr, k.DstPort)
	}
	return fmt.Sprintf("%s:%d > %s:%d", k.SrcAddr, k.SrcPort, k.DstAddr, k.DstPort)
}

// Packet is a fully decoded frame: link, network and transport headers plus
// application payload and capture timestamp. Proto selects which transport
// header is populated: TCP (the zero value's meaning) or UDP.
type Packet struct {
	Timestamp time.Time
	Eth       Ethernet
	IPVersion int // 4 or 6
	IP4       IPv4
	IP6       IPv6
	Proto     IPProtocol
	TCP       TCP
	UDP       UDP
	Payload   []byte
}

// Flow returns the packet's directional flow key.
func (p *Packet) Flow() FlowKey {
	k := FlowKey{SrcPort: p.TCP.SrcPort, DstPort: p.TCP.DstPort}
	if p.Proto == IPProtocolUDP {
		k.SrcPort, k.DstPort, k.Proto = p.UDP.SrcPort, p.UDP.DstPort, IPProtocolUDP
	}
	if p.IPVersion == 4 {
		k.SrcAddr, k.DstAddr = p.IP4.Src, p.IP4.Dst
	} else {
		k.SrcAddr, k.DstAddr = p.IP6.Src, p.IP6.Dst
	}
	return k
}

// Orientation is how a packet runs against a directional flow key.
type Orientation uint8

// Orientations, as Packet.Orient reports them.
const (
	// Unrelated: the packet belongs to another conversation.
	Unrelated Orientation = iota
	// Along: the packet's key is the key itself.
	Along
	// Against: the packet's key is the key's reverse.
	Against
)

// Orient reports whether p runs along k (p.Flow() == k), against it
// (p.Flow() == k.Reverse()), or neither, without building p's key. Ports
// are compared first, since they tell most conversations apart, then
// addresses; k.Proto follows Flow's rule, zero for TCP. A key that is its
// own reverse (one endpoint talking to itself) is Along.
func (p *Packet) Orient(k *FlowKey) Orientation {
	sport, dport, proto := p.TCP.SrcPort, p.TCP.DstPort, IPProtocol(0)
	if p.Proto == IPProtocolUDP {
		sport, dport, proto = p.UDP.SrcPort, p.UDP.DstPort, IPProtocolUDP
	}
	if k.Proto != proto {
		return Unrelated
	}
	along := sport == k.SrcPort && dport == k.DstPort
	against := sport == k.DstPort && dport == k.SrcPort
	if !along && !against {
		return Unrelated
	}
	src, dst := &p.IP6.Src, &p.IP6.Dst
	if p.IPVersion == 4 {
		src, dst = &p.IP4.Src, &p.IP4.Dst
	}
	switch {
	case along && *src == k.SrcAddr && *dst == k.DstAddr:
		return Along
	case against && *src == k.DstAddr && *dst == k.SrcAddr:
		return Against
	}
	return Unrelated
}

// DecodePacket parses an Ethernet/IP/{TCP,UDP} frame. Frames carrying any
// other transport return ErrUnsupported; the caller typically skips them.
func DecodePacket(ts time.Time, frame []byte) (*Packet, error) {
	p := new(Packet)
	if err := DecodeInto(p, ts, frame); err != nil {
		return nil, err
	}
	return p, nil
}

// DecodeInto is DecodePacket into caller-owned storage: it overwrites
// every field of *p, so one Packet can be reused across frames with no
// allocation per packet and no field surviving from the previous frame.
// Each header decodes straight into its field of *p. It returns the
// error DecodePacket would; *p is then unspecified. Payload aliases
// frame.
//
// An IPv4 fragment (MF set or a nonzero fragment offset) is
// ErrUnsupported: nothing here reassembles IP, so a fragment is never a
// whole transport segment, and a later fragment's first bytes are
// payload, not a header. IPv6 fragments fail as an unsupported next
// header.
func DecodeInto(p *Packet, ts time.Time, frame []byte) error {
	*p = Packet{Timestamp: ts}
	rest, err := p.Eth.decode(frame)
	if err != nil {
		return err
	}
	var proto IPProtocol
	switch p.Eth.EtherType {
	case EtherTypeIPv4:
		if rest, err = p.IP4.decode(rest); err != nil {
			return err
		}
		if p.IP4.Flags&0x1 != 0 || p.IP4.FragOff != 0 { // more fragments follow, or not the first
			return fmt.Errorf("%w: IPv4 fragment (offset %d, MF %d)",
				ErrUnsupported, p.IP4.FragOff, p.IP4.Flags&0x1)
		}
		p.IPVersion, proto = 4, p.IP4.Protocol
	case EtherTypeIPv6:
		if rest, err = p.IP6.decode(rest); err != nil {
			return err
		}
		p.IPVersion, proto = 6, p.IP6.NextHeader
	default:
		return fmt.Errorf("%w: ethertype %#04x", ErrUnsupported, uint16(p.Eth.EtherType))
	}
	switch proto {
	case IPProtocolTCP:
		p.Payload, err = p.TCP.decode(rest)
	case IPProtocolUDP:
		p.Payload, err = p.UDP.decode(rest)
	default:
		return fmt.Errorf("%w: IP protocol %d", ErrUnsupported, proto)
	}
	p.Proto = proto
	return err
}

// BuildTCPFrame serializes a complete Ethernet/IPv4-or-IPv6/TCP frame.
// The address family of key.SrcAddr selects the IP version. ipID feeds the
// IPv4 identification field so consecutive frames look realistic.
func BuildTCPFrame(key FlowKey, eth Ethernet, tcp TCP, payload []byte, ipID uint16) ([]byte, error) {
	w := wire.NewWriter(ethernetHeaderLen + ipv4HeaderLen + tcpHeaderLen + len(payload))
	if err := AppendTCPHeaders(w, key, eth, tcp, len(payload), wire.AddChecksum(0, payload), ipID); err != nil {
		return nil, err
	}
	w.Write(payload)
	return w.Bytes(), nil
}

// AppendTCPHeaders appends the Ethernet, IP and TCP headers of the frame
// BuildTCPFrame builds, without the payload. Their length and checksum
// fields cover a payloadLen-byte payload whose partial sum (AddChecksum
// from 0) is payloadSum, and which the caller writes right after them:
// capture packs only headers into its frame arena and writes each
// payload straight from the trace's stream. An all-zero payload sums to
// 0, so its checksum costs nothing per payload byte.
func AppendTCPHeaders(w *wire.Writer, key FlowKey, eth Ethernet, tcp TCP, payloadLen int, payloadSum uint32, ipID uint16) error {
	if err := appendIPHeaders(w, key, eth, IPProtocolTCP, tcpHeaderLen+payloadLen, ipID); err != nil {
		return err
	}
	tcp.SrcPort, tcp.DstPort = key.SrcPort, key.DstPort
	return tcp.appendHeader(w, key.SrcAddr, key.DstAddr, payloadLen, payloadSum)
}

// appendIPHeaders appends a frame's Ethernet header and its IPv4 or IPv6
// header (the family of key.SrcAddr) for a segLen-byte proto segment.
func appendIPHeaders(w *wire.Writer, key FlowKey, eth Ethernet, proto IPProtocol, segLen int, ipID uint16) error {
	switch {
	case key.SrcAddr.Is4():
		eth.EtherType = EtherTypeIPv4
		eth.AppendTo(w)
		ip := IPv4{TTL: 64, Protocol: proto, ID: ipID,
			Flags: 0x2, // don't fragment
			Src:   key.SrcAddr, Dst: key.DstAddr}
		return ip.AppendTo(w, segLen)
	case key.SrcAddr.Is6():
		eth.EtherType = EtherTypeIPv6
		eth.AppendTo(w)
		ip := IPv6{HopLimit: 64, NextHeader: proto,
			Src: key.SrcAddr, Dst: key.DstAddr}
		return ip.AppendTo(w, segLen)
	}
	return fmt.Errorf("layers: flow key has no valid source address")
}

// Package layers implements encoding and decoding for the small protocol
// stack the White Mirror pipeline needs: Ethernet II, IPv4, IPv6 and TCP.
// It is a deliberately minimal, allocation-light re-implementation of the
// corresponding gopacket layers, built on the stdlib only so that capture
// files written by the simulator are genuine wire-format frames and the
// attack consumes them through the same parsing steps it would apply to a
// real tcpdump capture.
package layers

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"

	"repro/internal/wire"
)

// EtherType identifies the payload protocol of an Ethernet frame.
type EtherType uint16

// EtherTypes understood by this package.
const (
	EtherTypeIPv4 EtherType = 0x0800
	EtherTypeIPv6 EtherType = 0x86dd
)

// IPProtocol identifies the payload protocol of an IP packet.
type IPProtocol uint8

// IP protocol numbers understood by this package.
const (
	IPProtocolTCP IPProtocol = 6
	IPProtocolUDP IPProtocol = 17
)

// Common decode errors.
var (
	ErrTruncated   = errors.New("layers: truncated packet")
	ErrBadVersion  = errors.New("layers: bad IP version")
	ErrUnsupported = errors.New("layers: unsupported protocol")
)

// MAC is a 6-byte Ethernet hardware address.
type MAC [6]byte

// String renders the address in the canonical colon-separated form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x",
		m[0], m[1], m[2], m[3], m[4], m[5])
}

// Ethernet is an Ethernet II header.
type Ethernet struct {
	Dst, Src  MAC
	EtherType EtherType
}

// ethernetHeaderLen is the fixed Ethernet II header size.
const ethernetHeaderLen = 14

// AppendTo serializes the header in front of payload semantics: callers
// append the header first, then the payload bytes.
func (e *Ethernet) AppendTo(w *wire.Writer) {
	w.Write(e.Dst[:])
	w.Write(e.Src[:])
	w.U16(uint16(e.EtherType))
}

// decode parses an Ethernet II header into e and returns the remaining
// payload bytes.
func (e *Ethernet) decode(data []byte) ([]byte, error) {
	if len(data) < ethernetHeaderLen {
		return nil, fmt.Errorf("%w: ethernet header needs %d bytes, have %d",
			ErrTruncated, ethernetHeaderLen, len(data))
	}
	e.Dst = MAC(data[0:6])
	e.Src = MAC(data[6:12])
	e.EtherType = EtherType(binary.BigEndian.Uint16(data[12:]))
	return data[ethernetHeaderLen:], nil
}

// IPv4 is an IPv4 header without options (IHL is always 5 on encode;
// options are skipped on decode).
type IPv4 struct {
	TOS      uint8
	ID       uint16
	Flags    uint8 // upper 3 bits of the fragment field
	FragOff  uint16
	TTL      uint8
	Protocol IPProtocol
	Src, Dst netip.Addr
	// TotalLen is filled during decode; on encode it is computed from the
	// payload length handed to AppendTo.
	TotalLen uint16
}

const ipv4HeaderLen = 20

// AppendTo serializes the IPv4 header for a payload of payloadLen bytes,
// computing total length and header checksum.
func (ip *IPv4) AppendTo(w *wire.Writer, payloadLen int) error {
	if !ip.Src.Is4() || !ip.Dst.Is4() {
		return fmt.Errorf("layers: IPv4 header requires 4-byte addresses (src %v dst %v)",
			ip.Src, ip.Dst)
	}
	total := ipv4HeaderLen + payloadLen
	if total > 0xffff {
		return fmt.Errorf("layers: IPv4 total length %d exceeds 65535", total)
	}
	start := w.Len()
	w.U8(0x45) // version 4, IHL 5
	w.U8(ip.TOS)
	w.U16(uint16(total))
	w.U16(ip.ID)
	w.U16(uint16(ip.Flags)<<13 | ip.FragOff&0x1fff)
	w.U8(ip.TTL)
	w.U8(uint8(ip.Protocol))
	w.U16(0) // checksum placeholder
	src := ip.Src.As4()
	dst := ip.Dst.As4()
	w.Write(src[:])
	w.Write(dst[:])
	ck := wire.Checksum(w.Bytes()[start : start+ipv4HeaderLen])
	w.SetU16(start+10, ck)
	return nil
}

// decode parses an IPv4 header into ip and returns the payload bytes
// (bounded by the header's total length, which guards against trailing
// Ethernet padding reaching the TCP parser).
func (ip *IPv4) decode(data []byte) ([]byte, error) {
	if len(data) < ipv4HeaderLen {
		return nil, fmt.Errorf("%w: IPv4 header needs %d bytes, have %d",
			ErrTruncated, ipv4HeaderLen, len(data))
	}
	vihl := data[0]
	if vihl>>4 != 4 {
		return nil, fmt.Errorf("%w: version %d", ErrBadVersion, vihl>>4)
	}
	hdrLen := int(vihl&0x0f) * 4
	if hdrLen < ipv4HeaderLen {
		return nil, fmt.Errorf("layers: IPv4 IHL %d below minimum", hdrLen)
	}
	if len(data) < hdrLen {
		return nil, fmt.Errorf("%w: IPv4 options extend past packet", ErrTruncated)
	}
	ip.TOS = data[1]
	ip.TotalLen = binary.BigEndian.Uint16(data[2:])
	ip.ID = binary.BigEndian.Uint16(data[4:])
	ip.Flags = data[6] >> 5
	ip.FragOff = binary.BigEndian.Uint16(data[6:]) & 0x1fff
	ip.TTL = data[8]
	ip.Protocol = IPProtocol(data[9])
	// data[10:12] is the checksum: simulator-written captures are trusted.
	ip.Src = netip.AddrFrom4([4]byte(data[12:16]))
	ip.Dst = netip.AddrFrom4([4]byte(data[16:20]))
	if int(ip.TotalLen) < hdrLen || int(ip.TotalLen) > len(data) {
		return nil, fmt.Errorf("%w: IPv4 total length %d vs %d captured",
			ErrTruncated, ip.TotalLen, len(data))
	}
	return data[hdrLen:ip.TotalLen], nil
}

// IPv6 is a fixed IPv6 header (no extension headers).
type IPv6 struct {
	TrafficClass uint8
	FlowLabel    uint32
	NextHeader   IPProtocol
	HopLimit     uint8
	Src, Dst     netip.Addr
	PayloadLen   uint16 // filled on decode
}

const ipv6HeaderLen = 40

// AppendTo serializes the IPv6 header for a payload of payloadLen bytes.
func (ip *IPv6) AppendTo(w *wire.Writer, payloadLen int) error {
	if !ip.Src.Is6() || !ip.Dst.Is6() || ip.Src.Is4In6() || ip.Dst.Is4In6() {
		return fmt.Errorf("layers: IPv6 header requires 16-byte addresses (src %v dst %v)",
			ip.Src, ip.Dst)
	}
	if payloadLen > 0xffff {
		return fmt.Errorf("layers: IPv6 payload length %d exceeds 65535", payloadLen)
	}
	w.U32(6<<28 | uint32(ip.TrafficClass)<<20 | ip.FlowLabel&0xfffff)
	w.U16(uint16(payloadLen))
	w.U8(uint8(ip.NextHeader))
	w.U8(ip.HopLimit)
	src := ip.Src.As16()
	dst := ip.Dst.As16()
	w.Write(src[:])
	w.Write(dst[:])
	return nil
}

// decode parses a fixed IPv6 header into ip and returns the payload.
func (ip *IPv6) decode(data []byte) ([]byte, error) {
	if len(data) < ipv6HeaderLen {
		return nil, fmt.Errorf("%w: IPv6 header needs %d bytes, have %d",
			ErrTruncated, ipv6HeaderLen, len(data))
	}
	first := binary.BigEndian.Uint32(data)
	if first>>28 != 6 {
		return nil, fmt.Errorf("%w: version %d", ErrBadVersion, first>>28)
	}
	ip.TrafficClass = uint8(first >> 20)
	ip.FlowLabel = first & 0xfffff
	ip.PayloadLen = binary.BigEndian.Uint16(data[4:])
	ip.NextHeader = IPProtocol(data[6])
	ip.HopLimit = data[7]
	ip.Src = netip.AddrFrom16([16]byte(data[8:24]))
	ip.Dst = netip.AddrFrom16([16]byte(data[24:40]))
	end := ipv6HeaderLen + int(ip.PayloadLen)
	if end > len(data) {
		return nil, fmt.Errorf("%w: IPv6 payload extends past packet", ErrTruncated)
	}
	return data[ipv6HeaderLen:end], nil
}

package layers

import (
	"encoding/binary"
	"fmt"
	"net/netip"

	"repro/internal/wire"
)

// UDP is a UDP header. QUIC conversations ride on it: every QUIC packet
// (or coalesced packet train) is one UDP datagram, so the eavesdropper's
// observable unit is the datagram length rather than a TLS record length.
type UDP struct {
	SrcPort, DstPort uint16
	// Length is the UDP length field: header plus payload.
	Length uint16
}

const udpHeaderLen = 8

// AppendTo serializes the UDP header followed by payload, computing the
// checksum over the IPv4/IPv6 pseudo-header. src and dst are the IP-layer
// addresses.
func (u *UDP) AppendTo(w *wire.Writer, src, dst netip.Addr, payload []byte) error {
	start := w.Len()
	segLen := udpHeaderLen + len(payload)
	w.U16(u.SrcPort)
	w.U16(u.DstPort)
	w.U16(uint16(segLen))
	w.U16(0) // checksum placeholder
	w.Write(payload)

	var sum uint32
	switch {
	case src.Is4() && dst.Is4():
		s4, d4 := src.As4(), dst.As4()
		sum = wire.AddChecksum(sum, s4[:])
		sum = wire.AddChecksum(sum, d4[:])
		sum = wire.AddChecksum(sum, []byte{0, uint8(IPProtocolUDP),
			byte(segLen >> 8), byte(segLen)})
	case src.Is6() && dst.Is6():
		s6, d6 := src.As16(), dst.As16()
		sum = wire.AddChecksum(sum, s6[:])
		sum = wire.AddChecksum(sum, d6[:])
		sum = wire.AddChecksum(sum, []byte{
			byte(segLen >> 24), byte(segLen >> 16), byte(segLen >> 8), byte(segLen),
			0, 0, 0, uint8(IPProtocolUDP)})
	default:
		return fmt.Errorf("layers: mismatched address families %v / %v", src, dst)
	}
	sum = wire.AddChecksum(sum, w.Bytes()[start:])
	ck := wire.FinishChecksum(sum)
	if ck == 0 {
		ck = 0xffff // RFC 768: transmitted all-ones when the sum is zero
	}
	w.SetU16(start+6, ck)
	return nil
}

// DecodeUDP parses a UDP header and returns it with the payload bytes,
// bounded by the header's length field.
func DecodeUDP(data []byte) (UDP, []byte, error) {
	if len(data) < udpHeaderLen {
		return UDP{}, nil, fmt.Errorf("%w: UDP header needs %d bytes, have %d",
			ErrTruncated, udpHeaderLen, len(data))
	}
	u := UDP{
		SrcPort: binary.BigEndian.Uint16(data[0:]),
		DstPort: binary.BigEndian.Uint16(data[2:]),
		Length:  binary.BigEndian.Uint16(data[4:]),
		// data[6:8] is the checksum.
	}
	if int(u.Length) < udpHeaderLen {
		return UDP{}, nil, fmt.Errorf("layers: UDP length %d below header size", u.Length)
	}
	if int(u.Length) > len(data) {
		return UDP{}, nil, fmt.Errorf("%w: UDP length %d exceeds %d available",
			ErrTruncated, u.Length, len(data))
	}
	return u, data[udpHeaderLen:u.Length], nil
}

// BuildUDPFrame serializes a complete Ethernet/IPv4-or-IPv6/UDP frame.
// The address family of key.SrcAddr selects the IP version.
func BuildUDPFrame(key FlowKey, eth Ethernet, payload []byte, ipID uint16) ([]byte, error) {
	w := wire.NewWriter(ethernetHeaderLen + ipv4HeaderLen + udpHeaderLen + len(payload))
	if err := AppendUDPFrame(w, key, eth, payload, ipID); err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

// AppendUDPFrame serializes the frame into an existing Writer, the
// arena-packing form capture uses when rendering thousands of datagrams.
func AppendUDPFrame(w *wire.Writer, key FlowKey, eth Ethernet, payload []byte, ipID uint16) error {
	switch {
	case key.SrcAddr.Is4():
		eth.EtherType = EtherTypeIPv4
		eth.AppendTo(w)
		ip := IPv4{TTL: 64, Protocol: IPProtocolUDP, ID: ipID,
			Flags: 0x2, // don't fragment
			Src:   key.SrcAddr, Dst: key.DstAddr}
		if err := ip.AppendTo(w, udpHeaderLen+len(payload)); err != nil {
			return err
		}
	case key.SrcAddr.Is6():
		eth.EtherType = EtherTypeIPv6
		eth.AppendTo(w)
		ip := IPv6{HopLimit: 64, NextHeader: IPProtocolUDP,
			Src: key.SrcAddr, Dst: key.DstAddr}
		if err := ip.AppendTo(w, udpHeaderLen+len(payload)); err != nil {
			return err
		}
	default:
		return fmt.Errorf("layers: flow key has no valid source address")
	}
	u := UDP{SrcPort: key.SrcPort, DstPort: key.DstPort}
	return u.AppendTo(w, key.SrcAddr, key.DstAddr, payload)
}

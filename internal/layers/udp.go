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
	if err := u.appendHeader(w, src, dst, payload); err != nil {
		return err
	}
	w.Write(payload)
	return nil
}

// appendHeader serializes the UDP header alone, its length and checksum
// covering payload as if the payload followed it.
func (u *UDP) appendHeader(w *wire.Writer, src, dst netip.Addr, payload []byte) error {
	segLen := udpHeaderLen + len(payload)
	sum, err := pseudoHeaderSum(0, src, dst, IPProtocolUDP, segLen)
	if err != nil {
		return err
	}
	start := w.Len()
	w.U16(u.SrcPort)
	w.U16(u.DstPort)
	w.U16(uint16(segLen))
	w.U16(0) // checksum placeholder
	sum = wire.AddChecksum(sum, w.Bytes()[start:])
	ck := wire.FinishChecksum(wire.AddChecksum(sum, payload))
	if ck == 0 {
		ck = 0xffff // RFC 768: transmitted all-ones when the sum is zero
	}
	w.SetU16(start+6, ck)
	return nil
}

// decode parses a UDP header into u and returns the payload bytes,
// bounded by the header's length field.
func (u *UDP) decode(data []byte) ([]byte, error) {
	if len(data) < udpHeaderLen {
		return nil, fmt.Errorf("%w: UDP header needs %d bytes, have %d",
			ErrTruncated, udpHeaderLen, len(data))
	}
	u.SrcPort = binary.BigEndian.Uint16(data[0:])
	u.DstPort = binary.BigEndian.Uint16(data[2:])
	u.Length = binary.BigEndian.Uint16(data[4:])
	// data[6:8] is the checksum.
	if int(u.Length) < udpHeaderLen {
		return nil, fmt.Errorf("layers: UDP length %d below header size", u.Length)
	}
	if int(u.Length) > len(data) {
		return nil, fmt.Errorf("%w: UDP length %d exceeds %d available",
			ErrTruncated, u.Length, len(data))
	}
	return data[udpHeaderLen:u.Length], nil
}

// BuildUDPFrame serializes a complete Ethernet/IPv4-or-IPv6/UDP frame.
// The address family of key.SrcAddr selects the IP version.
func BuildUDPFrame(key FlowKey, eth Ethernet, payload []byte, ipID uint16) ([]byte, error) {
	w := wire.NewWriter(ethernetHeaderLen + ipv4HeaderLen + udpHeaderLen + len(payload))
	if err := AppendUDPHeaders(w, key, eth, payload, ipID); err != nil {
		return nil, err
	}
	w.Write(payload)
	return w.Bytes(), nil
}

// AppendUDPHeaders appends the Ethernet, IP and UDP headers of the frame
// BuildUDPFrame builds, without the payload. Their length and checksum
// fields cover payload, which the caller writes right after them: capture
// packs only headers into its frame arena and writes each payload
// straight from the trace's stream.
func AppendUDPHeaders(w *wire.Writer, key FlowKey, eth Ethernet, payload []byte, ipID uint16) error {
	if err := appendIPHeaders(w, key, eth, IPProtocolUDP, udpHeaderLen+len(payload), ipID); err != nil {
		return err
	}
	u := UDP{SrcPort: key.SrcPort, DstPort: key.DstPort}
	return u.appendHeader(w, key.SrcAddr, key.DstAddr, payload)
}

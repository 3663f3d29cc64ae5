package layers

import (
	"encoding/binary"
	"fmt"
	"net/netip"

	"repro/internal/wire"
)

// TCPFlags is the TCP flag byte.
type TCPFlags uint8

// TCP flag bits.
const (
	TCPFin TCPFlags = 1 << iota
	TCPSyn
	TCPRst
	TCPPsh
	TCPAck
	TCPUrg
)

// String renders set flags in tcpdump-like order.
func (f TCPFlags) String() string {
	s := ""
	if f&TCPSyn != 0 {
		s += "S"
	}
	if f&TCPFin != 0 {
		s += "F"
	}
	if f&TCPRst != 0 {
		s += "R"
	}
	if f&TCPPsh != 0 {
		s += "P"
	}
	if f&TCPAck != 0 {
		s += "."
	}
	if f&TCPUrg != 0 {
		s += "U"
	}
	if s == "" {
		s = "none"
	}
	return s
}

// TCP is a TCP header without options (data offset 5 on encode; options
// skipped on decode).
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            TCPFlags
	Window           uint16
	Urgent           uint16
}

const tcpHeaderLen = 20

// AppendTo serializes the TCP header followed by payload, computing the
// checksum over the IPv4/IPv6 pseudo-header. src and dst are the IP-layer
// addresses.
func (t *TCP) AppendTo(w *wire.Writer, src, dst netip.Addr, payload []byte) error {
	if err := t.appendHeader(w, src, dst, len(payload), wire.AddChecksum(0, payload)); err != nil {
		return err
	}
	w.Write(payload)
	return nil
}

// appendHeader serializes the TCP header alone, its checksum covering a
// payloadLen-byte payload whose partial sum (AddChecksum from 0) is
// payloadSum, as if the payload followed it.
func (t *TCP) appendHeader(w *wire.Writer, src, dst netip.Addr, payloadLen int, payloadSum uint32) error {
	sum, err := pseudoHeaderSum(payloadSum, src, dst, IPProtocolTCP, tcpHeaderLen+payloadLen)
	if err != nil {
		return err
	}
	start := w.Len()
	w.U16(t.SrcPort)
	w.U16(t.DstPort)
	w.U32(t.Seq)
	w.U32(t.Ack)
	w.U8(5 << 4) // data offset 5, reserved 0
	w.U8(uint8(t.Flags))
	w.U16(t.Window)
	w.U16(0) // checksum placeholder
	w.U16(t.Urgent)
	w.SetU16(start+16, wire.FinishChecksum(wire.AddChecksum(sum, w.Bytes()[start:])))
	return nil
}

// pseudoHeaderSum folds into sum the IPv4 or IPv6 pseudo-header of a
// segLen-byte proto segment from src to dst, the part of a TCP or UDP
// checksum the segment's own bytes do not cover.
func pseudoHeaderSum(sum uint32, src, dst netip.Addr, proto IPProtocol, segLen int) (uint32, error) {
	switch {
	case src.Is4() && dst.Is4():
		s4, d4 := src.As4(), dst.As4()
		sum = wire.AddChecksum(sum, s4[:])
		sum = wire.AddChecksum(sum, d4[:])
		return wire.AddChecksum(sum, []byte{0, uint8(proto),
			byte(segLen >> 8), byte(segLen)}), nil
	case src.Is6() && dst.Is6():
		s6, d6 := src.As16(), dst.As16()
		sum = wire.AddChecksum(sum, s6[:])
		sum = wire.AddChecksum(sum, d6[:])
		return wire.AddChecksum(sum, []byte{
			byte(segLen >> 24), byte(segLen >> 16), byte(segLen >> 8), byte(segLen),
			0, 0, 0, uint8(proto)}), nil
	}
	return 0, fmt.Errorf("layers: mismatched address families %v / %v", src, dst)
}

// decode parses a TCP header into t and returns the payload bytes.
func (t *TCP) decode(data []byte) ([]byte, error) {
	if len(data) < tcpHeaderLen {
		return nil, fmt.Errorf("%w: TCP header needs %d bytes, have %d",
			ErrTruncated, tcpHeaderLen, len(data))
	}
	t.SrcPort = binary.BigEndian.Uint16(data[0:])
	t.DstPort = binary.BigEndian.Uint16(data[2:])
	t.Seq = binary.BigEndian.Uint32(data[4:])
	t.Ack = binary.BigEndian.Uint32(data[8:])
	t.Flags = TCPFlags(data[13])
	t.Window = binary.BigEndian.Uint16(data[14:])
	// data[16:18] is the checksum.
	t.Urgent = binary.BigEndian.Uint16(data[18:])
	off := int(data[12]>>4) * 4
	if off < tcpHeaderLen {
		return nil, fmt.Errorf("layers: TCP data offset %d below minimum", off)
	}
	if off > len(data) {
		return nil, fmt.Errorf("%w: TCP options extend past segment", ErrTruncated)
	}
	return data[off:], nil
}

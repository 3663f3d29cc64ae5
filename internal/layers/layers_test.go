package layers

import (
	"bytes"
	"errors"
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/wire"
)

var (
	cliMAC = MAC{0x02, 0x00, 0x00, 0x00, 0x00, 0x01}
	srvMAC = MAC{0x02, 0x00, 0x00, 0x00, 0x00, 0x02}
	cli4   = netip.MustParseAddr("192.168.1.50")
	srv4   = netip.MustParseAddr("45.57.40.1")
	cli6   = netip.MustParseAddr("2001:db8::50")
	srv6   = netip.MustParseAddr("2001:db8:cd::1")
)

func TestEthernetRoundTrip(t *testing.T) {
	e := Ethernet{Dst: srvMAC, Src: cliMAC, EtherType: EtherTypeIPv4}
	w := wire.NewWriter(16)
	e.AppendTo(w)
	var got Ethernet
	rest, err := got.decode(append(w.Bytes(), 0xaa, 0xbb))
	if err != nil {
		t.Fatal(err)
	}
	if got != e {
		t.Errorf("round trip: got %+v, want %+v", got, e)
	}
	if !bytes.Equal(rest, []byte{0xaa, 0xbb}) {
		t.Errorf("payload = %v", rest)
	}
}

func TestEthernetTruncated(t *testing.T) {
	_, err := new(Ethernet).decode(make([]byte, 13))
	if !errors.Is(err, ErrTruncated) {
		t.Errorf("err = %v, want ErrTruncated", err)
	}
}

func TestMACString(t *testing.T) {
	if got := cliMAC.String(); got != "02:00:00:00:00:01" {
		t.Errorf("MAC.String = %q", got)
	}
}

func TestIPv4RoundTrip(t *testing.T) {
	ip := IPv4{TOS: 0x10, ID: 0x1234, Flags: 0x2, TTL: 64,
		Protocol: IPProtocolTCP, Src: cli4, Dst: srv4}
	payload := []byte("hello ipv4 payload")
	w := wire.NewWriter(64)
	if err := ip.AppendTo(w, len(payload)); err != nil {
		t.Fatal(err)
	}
	w.Write(payload)

	var got IPv4
	gotPayload, err := got.decode(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Src != cli4 || got.Dst != srv4 || got.Protocol != IPProtocolTCP ||
		got.TTL != 64 || got.ID != 0x1234 || got.TOS != 0x10 || got.Flags != 0x2 {
		t.Errorf("header mismatch: %+v", got)
	}
	if int(got.TotalLen) != 20+len(payload) {
		t.Errorf("TotalLen = %d", got.TotalLen)
	}
	if !bytes.Equal(gotPayload, payload) {
		t.Errorf("payload mismatch")
	}
}

func TestIPv4HeaderChecksumValid(t *testing.T) {
	ip := IPv4{TTL: 64, Protocol: IPProtocolTCP, Src: cli4, Dst: srv4}
	w := wire.NewWriter(20)
	if err := ip.AppendTo(w, 0); err != nil {
		t.Fatal(err)
	}
	if ck := wire.Checksum(w.Bytes()); ck != 0 {
		t.Errorf("header does not self-verify: %#04x", ck)
	}
}

func TestIPv4PaddingIgnored(t *testing.T) {
	// Ethernet minimum-frame padding after the IP datagram must not leak
	// into the payload: the IPv4 decode bounds payload by TotalLen.
	ip := IPv4{TTL: 64, Protocol: IPProtocolTCP, Src: cli4, Dst: srv4}
	w := wire.NewWriter(32)
	if err := ip.AppendTo(w, 4); err != nil {
		t.Fatal(err)
	}
	w.Write([]byte{1, 2, 3, 4})
	w.Zero(10) // padding
	payload, err := new(IPv4).decode(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(payload) != 4 {
		t.Errorf("payload len = %d, want 4 (padding leaked)", len(payload))
	}
}

func TestIPv4RejectsWrongFamily(t *testing.T) {
	ip := IPv4{Src: cli6, Dst: srv4}
	if err := ip.AppendTo(wire.NewWriter(20), 0); err == nil {
		t.Error("expected error for IPv6 source in IPv4 header")
	}
}

func TestIPv4BadVersion(t *testing.T) {
	buf := make([]byte, 20)
	buf[0] = 0x65 // version 6, IHL 5
	_, err := new(IPv4).decode(buf)
	if !errors.Is(err, ErrBadVersion) {
		t.Errorf("err = %v, want ErrBadVersion", err)
	}
}

func TestIPv4TruncatedTotalLen(t *testing.T) {
	ip := IPv4{TTL: 64, Protocol: IPProtocolTCP, Src: cli4, Dst: srv4}
	w := wire.NewWriter(32)
	if err := ip.AppendTo(w, 100); err != nil { // claims 100-byte payload
		t.Fatal(err)
	}
	w.Write([]byte{1, 2, 3}) // delivers 3
	_, err := new(IPv4).decode(w.Bytes())
	if !errors.Is(err, ErrTruncated) {
		t.Errorf("err = %v, want ErrTruncated", err)
	}
}

func TestIPv6RoundTrip(t *testing.T) {
	ip := IPv6{TrafficClass: 0x20, FlowLabel: 0xabcde, NextHeader: IPProtocolTCP,
		HopLimit: 64, Src: cli6, Dst: srv6}
	payload := []byte("v6 payload")
	w := wire.NewWriter(64)
	if err := ip.AppendTo(w, len(payload)); err != nil {
		t.Fatal(err)
	}
	w.Write(payload)
	var got IPv6
	gotPayload, err := got.decode(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Src != cli6 || got.Dst != srv6 || got.TrafficClass != 0x20 ||
		got.FlowLabel != 0xabcde || got.HopLimit != 64 {
		t.Errorf("header mismatch: %+v", got)
	}
	if !bytes.Equal(gotPayload, payload) {
		t.Errorf("payload mismatch")
	}
}

func TestIPv6RejectsMappedAddr(t *testing.T) {
	mapped := netip.AddrFrom16(netip.MustParseAddr("192.0.2.1").As16())
	ip := IPv6{Src: mapped, Dst: srv6}
	if err := ip.AppendTo(wire.NewWriter(40), 0); err == nil {
		t.Error("expected error for 4-in-6 mapped source")
	}
}

func TestTCPRoundTrip(t *testing.T) {
	tcp := TCP{SrcPort: 51000, DstPort: 443, Seq: 1000, Ack: 2000,
		Flags: TCPPsh | TCPAck, Window: 65535}
	payload := []byte("GET /chunk")
	w := wire.NewWriter(64)
	if err := tcp.AppendTo(w, cli4, srv4, payload); err != nil {
		t.Fatal(err)
	}
	var got TCP
	gotPayload, err := got.decode(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.SrcPort != 51000 || got.DstPort != 443 || got.Seq != 1000 ||
		got.Ack != 2000 || got.Flags != TCPPsh|TCPAck || got.Window != 65535 {
		t.Errorf("header mismatch: %+v", got)
	}
	if !bytes.Equal(gotPayload, payload) {
		t.Errorf("payload mismatch")
	}
}

func TestTCPChecksumPseudoHeaderV4(t *testing.T) {
	tcp := TCP{SrcPort: 1, DstPort: 2, Seq: 3, Ack: 4, Flags: TCPAck}
	payload := []byte{0xde, 0xad}
	w := wire.NewWriter(32)
	if err := tcp.AppendTo(w, cli4, srv4, payload); err != nil {
		t.Fatal(err)
	}
	// Recompute: pseudo-header + segment with embedded checksum == 0.
	seg := w.Bytes()
	s4, d4 := cli4.As4(), srv4.As4()
	sum := wire.AddChecksum(0, s4[:])
	sum = wire.AddChecksum(sum, d4[:])
	sum = wire.AddChecksum(sum, []byte{0, 6, 0, byte(len(seg))})
	sum = wire.AddChecksum(sum, seg)
	if ck := wire.FinishChecksum(sum); ck != 0 {
		t.Errorf("TCP/IPv4 checksum does not verify: %#04x", ck)
	}
}

func TestTCPChecksumPseudoHeaderV6(t *testing.T) {
	tcp := TCP{SrcPort: 1, DstPort: 2, Flags: TCPSyn}
	w := wire.NewWriter(32)
	if err := tcp.AppendTo(w, cli6, srv6, nil); err != nil {
		t.Fatal(err)
	}
	seg := w.Bytes()
	s6, d6 := cli6.As16(), srv6.As16()
	sum := wire.AddChecksum(0, s6[:])
	sum = wire.AddChecksum(sum, d6[:])
	sum = wire.AddChecksum(sum, []byte{0, 0, 0, byte(len(seg)), 0, 0, 0, 6})
	sum = wire.AddChecksum(sum, seg)
	if ck := wire.FinishChecksum(sum); ck != 0 {
		t.Errorf("TCP/IPv6 checksum does not verify: %#04x", ck)
	}
}

func TestTCPMismatchedFamilies(t *testing.T) {
	tcp := TCP{}
	if err := tcp.AppendTo(wire.NewWriter(32), cli4, srv6, nil); err == nil {
		t.Error("expected error for mixed address families")
	}
}

func TestTCPFlagsString(t *testing.T) {
	cases := []struct {
		f    TCPFlags
		want string
	}{
		{TCPSyn, "S"},
		{TCPSyn | TCPAck, "S."},
		{TCPPsh | TCPAck, "P."},
		{TCPFin | TCPAck, "F."},
		{TCPRst, "R"},
		{0, "none"},
	}
	for _, c := range cases {
		if got := c.f.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", c.f, got, c.want)
		}
	}
}

func TestFlowKeyReverseCanonical(t *testing.T) {
	k := FlowKey{SrcAddr: cli4, DstAddr: srv4, SrcPort: 51000, DstPort: 443}
	rev := k.Reverse()
	if rev.SrcAddr != srv4 || rev.DstPort != 51000 {
		t.Errorf("Reverse = %+v", rev)
	}
	c1, fwd1 := k.Canonical()
	c2, fwd2 := rev.Canonical()
	if c1 != c2 {
		t.Errorf("canonical forms differ: %v vs %v", c1, c2)
	}
	if fwd1 == fwd2 {
		t.Errorf("both directions claim the same orientation")
	}
}

func TestBuildAndDecodePacketV4(t *testing.T) {
	key := FlowKey{SrcAddr: cli4, DstAddr: srv4, SrcPort: 51000, DstPort: 443}
	eth := Ethernet{Dst: srvMAC, Src: cliMAC}
	tcp := TCP{Seq: 77, Ack: 88, Flags: TCPPsh | TCPAck, Window: 29200}
	payload := []byte("tls record bytes here")
	frame, err := BuildTCPFrame(key, eth, tcp, payload, 42)
	if err != nil {
		t.Fatal(err)
	}
	ts := time.Unix(1700000000, 123456789)
	p, err := DecodePacket(ts, frame)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Timestamp.Equal(ts) {
		t.Errorf("timestamp mismatch")
	}
	if p.IPVersion != 4 || p.IP4.ID != 42 {
		t.Errorf("IP fields: version=%d id=%d", p.IPVersion, p.IP4.ID)
	}
	if got := p.Flow(); got != key {
		t.Errorf("Flow = %v, want %v", got, key)
	}
	if !bytes.Equal(p.Payload, payload) {
		t.Errorf("payload mismatch")
	}
}

func TestBuildAndDecodePacketV6(t *testing.T) {
	key := FlowKey{SrcAddr: cli6, DstAddr: srv6, SrcPort: 50001, DstPort: 443}
	frame, err := BuildTCPFrame(key, Ethernet{Dst: srvMAC, Src: cliMAC},
		TCP{Seq: 1, Flags: TCPAck}, []byte("v6"), 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := DecodePacket(time.Now(), frame)
	if err != nil {
		t.Fatal(err)
	}
	if p.IPVersion != 6 {
		t.Errorf("IPVersion = %d, want 6", p.IPVersion)
	}
	if got := p.Flow(); got != key {
		t.Errorf("Flow = %v, want %v", got, key)
	}
}

func TestDecodePacketUnsupported(t *testing.T) {
	w := wire.NewWriter(16)
	e := Ethernet{EtherType: 0x0806} // ARP
	e.AppendTo(w)
	w.Zero(28)
	_, err := DecodePacket(time.Now(), w.Bytes())
	if !errors.Is(err, ErrUnsupported) {
		t.Errorf("err = %v, want ErrUnsupported", err)
	}
}

func TestTCPPayloadRoundTripProperty(t *testing.T) {
	key := FlowKey{SrcAddr: cli4, DstAddr: srv4, SrcPort: 51000, DstPort: 443}
	f := func(payload []byte, seq, ack uint32, win uint16) bool {
		if len(payload) > 60000 {
			payload = payload[:60000]
		}
		frame, err := BuildTCPFrame(key, Ethernet{Dst: srvMAC, Src: cliMAC},
			TCP{Seq: seq, Ack: ack, Flags: TCPPsh | TCPAck, Window: win}, payload, 7)
		if err != nil {
			return false
		}
		p, err := DecodePacket(time.Now(), frame)
		if err != nil {
			return false
		}
		return p.TCP.Seq == seq && p.TCP.Ack == ack && p.TCP.Window == win &&
			bytes.Equal(p.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

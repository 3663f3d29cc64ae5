package layers

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/wire"
)

func TestUDPRoundTrip(t *testing.T) {
	payload := []byte("quic datagram bytes")
	u := UDP{SrcPort: 51732, DstPort: 443}
	w := wire.NewWriter(64)
	if err := u.AppendTo(w, cli4, srv4, payload); err != nil {
		t.Fatal(err)
	}
	var got UDP
	gotPayload, err := got.decode(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.SrcPort != u.SrcPort || got.DstPort != u.DstPort {
		t.Errorf("ports = %d>%d, want %d>%d", got.SrcPort, got.DstPort, u.SrcPort, u.DstPort)
	}
	if int(got.Length) != udpHeaderLen+len(payload) {
		t.Errorf("length = %d, want %d", got.Length, udpHeaderLen+len(payload))
	}
	if !bytes.Equal(gotPayload, payload) {
		t.Errorf("payload = %q", gotPayload)
	}
}

func TestUDPChecksumPseudoHeaderV4(t *testing.T) {
	payload := []byte{1, 2, 3, 4, 5}
	u := UDP{SrcPort: 1000, DstPort: 2000}
	w := wire.NewWriter(32)
	if err := u.AppendTo(w, cli4, srv4, payload); err != nil {
		t.Fatal(err)
	}
	// Verifying over pseudo-header + segment (checksum field included)
	// must yield zero, the standard receiver check.
	seg := w.Bytes()
	s4, d4 := cli4.As4(), srv4.As4()
	var sum uint32
	sum = wire.AddChecksum(sum, s4[:])
	sum = wire.AddChecksum(sum, d4[:])
	sum = wire.AddChecksum(sum, []byte{0, uint8(IPProtocolUDP),
		byte(len(seg) >> 8), byte(len(seg))})
	sum = wire.AddChecksum(sum, seg)
	if wire.FinishChecksum(sum) != 0 {
		t.Errorf("checksum does not verify: residue %#04x", wire.FinishChecksum(sum))
	}
}

func TestUDPTruncated(t *testing.T) {
	if _, err := new(UDP).decode(make([]byte, udpHeaderLen-1)); err == nil {
		t.Fatal("want error for short header")
	}
	u := UDP{SrcPort: 1, DstPort: 2}
	w := wire.NewWriter(32)
	if err := u.AppendTo(w, cli4, srv4, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := new(UDP).decode(w.Bytes()[:udpHeaderLen+2]); err == nil {
		t.Fatal("want error when length field exceeds available bytes")
	}
}

func TestBuildAndDecodeUDPPacket(t *testing.T) {
	key := FlowKey{SrcAddr: cli4, DstAddr: srv4, SrcPort: 51732, DstPort: 443,
		Proto: IPProtocolUDP}
	eth := Ethernet{Dst: srvMAC, Src: cliMAC}
	payload := []byte("1-RTT short header packet")
	frame, err := BuildUDPFrame(key, eth, payload, 77)
	if err != nil {
		t.Fatal(err)
	}
	ts := time.Unix(1735689600, 0)
	p, err := DecodePacket(ts, frame)
	if err != nil {
		t.Fatal(err)
	}
	if p.Proto != IPProtocolUDP {
		t.Fatalf("proto = %d, want UDP", p.Proto)
	}
	if p.Flow() != key {
		t.Errorf("flow = %v, want %v", p.Flow(), key)
	}
	if !bytes.Equal(p.Payload, payload) {
		t.Errorf("payload = %q", p.Payload)
	}
	if got := key.String(); got != "udp 192.168.1.50:51732 > 45.57.40.1:443" {
		t.Errorf("String() = %q", got)
	}
}

func TestBuildAndDecodeUDPPacketV6(t *testing.T) {
	key := FlowKey{SrcAddr: cli6, DstAddr: srv6, SrcPort: 40000, DstPort: 443,
		Proto: IPProtocolUDP}
	eth := Ethernet{Dst: srvMAC, Src: cliMAC}
	payload := bytes.Repeat([]byte{0xab}, 1200)
	frame, err := BuildUDPFrame(key, eth, payload, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := DecodePacket(time.Unix(0, 0), frame)
	if err != nil {
		t.Fatal(err)
	}
	if p.Flow() != key || !bytes.Equal(p.Payload, payload) {
		t.Errorf("v6 UDP round trip mismatch: flow %v", p.Flow())
	}
}

func TestFlowKeyProtoDistinguishesTransports(t *testing.T) {
	tcp := FlowKey{SrcAddr: cli4, DstAddr: srv4, SrcPort: 51732, DstPort: 443}
	udp := tcp
	udp.Proto = IPProtocolUDP
	if tcp == udp {
		t.Fatal("TCP and UDP keys over the same 5-tuple must differ")
	}
	if udp.Reverse().Proto != IPProtocolUDP {
		t.Error("Reverse dropped Proto")
	}
	canon, _ := udp.Canonical()
	if canon.Proto != IPProtocolUDP {
		t.Error("Canonical dropped Proto")
	}
}

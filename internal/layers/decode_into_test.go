package layers_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"repro/internal/capture"
	"repro/internal/layers"
	"repro/internal/media"
	"repro/internal/pcapio"
	"repro/internal/profiles"
	"repro/internal/quicrec"
	"repro/internal/script"
	"repro/internal/session"
	"repro/internal/viewer"
	"repro/internal/wire"
)

// testFrame is one hand-built frame and the sentinel its decode must
// fail with (nil for a frame that decodes).
type testFrame struct {
	name string
	data []byte
	err  error
}

// handBuiltFrames covers both IP versions under both transports, with
// truncated and unsupported frames between them, so a decode that
// reuses one Packet meets every field layout after every other.
func handBuiltFrames(tb testing.TB) []testFrame {
	tb.Helper()
	eth := layers.Ethernet{Dst: layers.MAC{2, 0, 0, 0, 0, 2}, Src: layers.MAC{2, 0, 0, 0, 0, 1}}
	k4 := layers.FlowKey{SrcAddr: netip.MustParseAddr("192.168.1.50"),
		DstAddr: netip.MustParseAddr("45.57.40.1"), SrcPort: 51000, DstPort: 443}
	k6 := layers.FlowKey{SrcAddr: netip.MustParseAddr("2001:db8::50"),
		DstAddr: netip.MustParseAddr("2001:db8:cd::1"), SrcPort: 51001, DstPort: 443}
	must := func(b []byte, err error) []byte {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	v4tcp := must(layers.BuildTCPFrame(k4, eth, layers.TCP{Seq: 1000, Ack: 2000,
		Flags: layers.TCPPsh | layers.TCPAck, Window: 512}, []byte("client hello"), 7))
	v6udp := must(layers.BuildUDPFrame(k6, eth, []byte{0xc0, 0, 0, 0, 1, 8, 1, 2, 3, 4}, 0))
	v4udp := must(layers.BuildUDPFrame(k4, eth, []byte("dns?"), 9))
	v6tcp := must(layers.BuildTCPFrame(k6, eth, layers.TCP{Seq: 5, Flags: layers.TCPSyn, Urgent: 3}, nil, 0))
	patch := func(b []byte, at int, v byte) []byte {
		out := append([]byte(nil), b...)
		out[at] = v
		return out
	}
	const ipStart = 14
	return []testFrame{
		{"ipv4/tcp", v4tcp, nil},
		{"ipv4 header cut short", v4tcp[:ipStart+12], layers.ErrTruncated},
		{"ipv6/udp", v6udp, nil},
		{"arp", patch(v4tcp, 13, 0x06), layers.ErrUnsupported},
		{"ipv4/udp", v4udp, nil},
		// The UDP datagram relabelled TCP: 12 bytes cannot hold a TCP header.
		{"tcp header cut short", patch(v4udp, ipStart+9, byte(layers.IPProtocolTCP)), layers.ErrTruncated},
		{"ipv6/tcp", v6tcp, nil},
		{"icmp", patch(v4tcp, ipStart+9, 1), layers.ErrUnsupported},
		{"ipv6 payload past frame", v6tcp[:len(v6tcp)-1], layers.ErrTruncated},
		// Offset 185 (in 8-byte units): its first bytes are payload,
		// not a TCP header.
		{"ipv4 fragment", patch(v4tcp, ipStart+7, 185), layers.ErrUnsupported},
		{"ipv4 first fragment", patch(v4tcp, ipStart+6, 0x20), layers.ErrUnsupported}, // MF, offset 0
		{"ipv4/tcp again", v4tcp, nil},
	}
}

// refDecode is the reference DecodeInto must match: Ethernet, then IPv4
// or IPv6, then TCP or UDP, each header built by value in its own
// decoder below and copied into the Packet, plus the IPv4 fragment rule.
// It shares no code with the package's in-place decoders, so a field
// they read from the wrong bytes, or a bound they set wrongly, shows as
// a difference.
func refDecode(ts time.Time, frame []byte) (layers.Packet, error) {
	p := layers.Packet{Timestamp: ts}
	eth, rest, err := refEthernet(frame)
	if err != nil {
		return p, err
	}
	p.Eth = eth
	var proto layers.IPProtocol
	switch eth.EtherType {
	case layers.EtherTypeIPv4:
		if p.IP4, rest, err = refIPv4(rest); err != nil {
			return p, err
		}
		if p.IP4.Flags&0x1 != 0 || p.IP4.FragOff != 0 {
			return p, fmt.Errorf("%w: IPv4 fragment (offset %d, MF %d)",
				layers.ErrUnsupported, p.IP4.FragOff, p.IP4.Flags&0x1)
		}
		p.IPVersion, proto = 4, p.IP4.Protocol
	case layers.EtherTypeIPv6:
		if p.IP6, rest, err = refIPv6(rest); err != nil {
			return p, err
		}
		p.IPVersion, proto = 6, p.IP6.NextHeader
	default:
		return p, fmt.Errorf("%w: ethertype %#04x", layers.ErrUnsupported, uint16(eth.EtherType))
	}
	switch proto {
	case layers.IPProtocolTCP:
		p.TCP, p.Payload, err = refTCP(rest)
	case layers.IPProtocolUDP:
		p.UDP, p.Payload, err = refUDP(rest)
	default:
		return p, fmt.Errorf("%w: IP protocol %d", layers.ErrUnsupported, proto)
	}
	p.Proto = proto
	return p, err
}

func refEthernet(data []byte) (layers.Ethernet, []byte, error) {
	if len(data) < 14 {
		return layers.Ethernet{}, nil, fmt.Errorf("%w: ethernet header needs %d bytes, have %d",
			layers.ErrTruncated, 14, len(data))
	}
	var e layers.Ethernet
	copy(e.Dst[:], data[0:6])
	copy(e.Src[:], data[6:12])
	e.EtherType = layers.EtherType(uint16(data[12])<<8 | uint16(data[13]))
	return e, data[14:], nil
}

func refIPv4(data []byte) (layers.IPv4, []byte, error) {
	if len(data) < 20 {
		return layers.IPv4{}, nil, fmt.Errorf("%w: IPv4 header needs %d bytes, have %d",
			layers.ErrTruncated, 20, len(data))
	}
	vihl := data[0]
	if vihl>>4 != 4 {
		return layers.IPv4{}, nil, fmt.Errorf("%w: version %d", layers.ErrBadVersion, vihl>>4)
	}
	hdrLen := int(vihl&0x0f) * 4
	if hdrLen < 20 {
		return layers.IPv4{}, nil, fmt.Errorf("layers: IPv4 IHL %d below minimum", hdrLen)
	}
	if len(data) < hdrLen {
		return layers.IPv4{}, nil, fmt.Errorf("%w: IPv4 options extend past packet", layers.ErrTruncated)
	}
	ip := layers.IPv4{
		TOS:      data[1],
		TotalLen: binary.BigEndian.Uint16(data[2:]),
		ID:       binary.BigEndian.Uint16(data[4:]),
		Flags:    data[6] >> 5,
		FragOff:  binary.BigEndian.Uint16(data[6:]) & 0x1fff,
		TTL:      data[8],
		Protocol: layers.IPProtocol(data[9]),
		Src:      netip.AddrFrom4([4]byte(data[12:16])),
		Dst:      netip.AddrFrom4([4]byte(data[16:20])),
	}
	if int(ip.TotalLen) < hdrLen || int(ip.TotalLen) > len(data) {
		return layers.IPv4{}, nil, fmt.Errorf("%w: IPv4 total length %d vs %d captured",
			layers.ErrTruncated, ip.TotalLen, len(data))
	}
	return ip, data[hdrLen:ip.TotalLen], nil
}

func refIPv6(data []byte) (layers.IPv6, []byte, error) {
	if len(data) < 40 {
		return layers.IPv6{}, nil, fmt.Errorf("%w: IPv6 header needs %d bytes, have %d",
			layers.ErrTruncated, 40, len(data))
	}
	first := binary.BigEndian.Uint32(data)
	if first>>28 != 6 {
		return layers.IPv6{}, nil, fmt.Errorf("%w: version %d", layers.ErrBadVersion, first>>28)
	}
	ip := layers.IPv6{
		TrafficClass: uint8(first >> 20),
		FlowLabel:    first & 0xfffff,
		PayloadLen:   binary.BigEndian.Uint16(data[4:]),
		NextHeader:   layers.IPProtocol(data[6]),
		HopLimit:     data[7],
		Src:          netip.AddrFrom16([16]byte(data[8:24])),
		Dst:          netip.AddrFrom16([16]byte(data[24:40])),
	}
	end := 40 + int(ip.PayloadLen)
	if end > len(data) {
		return layers.IPv6{}, nil, fmt.Errorf("%w: IPv6 payload extends past packet", layers.ErrTruncated)
	}
	return ip, data[40:end], nil
}

func refTCP(data []byte) (layers.TCP, []byte, error) {
	if len(data) < 20 {
		return layers.TCP{}, nil, fmt.Errorf("%w: TCP header needs %d bytes, have %d",
			layers.ErrTruncated, 20, len(data))
	}
	t := layers.TCP{
		SrcPort: binary.BigEndian.Uint16(data[0:]),
		DstPort: binary.BigEndian.Uint16(data[2:]),
		Seq:     binary.BigEndian.Uint32(data[4:]),
		Ack:     binary.BigEndian.Uint32(data[8:]),
		Flags:   layers.TCPFlags(data[13]),
		Window:  binary.BigEndian.Uint16(data[14:]),
		Urgent:  binary.BigEndian.Uint16(data[18:]),
	}
	off := int(data[12]>>4) * 4
	if off < 20 {
		return layers.TCP{}, nil, fmt.Errorf("layers: TCP data offset %d below minimum", off)
	}
	if off > len(data) {
		return layers.TCP{}, nil, fmt.Errorf("%w: TCP options extend past segment", layers.ErrTruncated)
	}
	return t, data[off:], nil
}

func refUDP(data []byte) (layers.UDP, []byte, error) {
	if len(data) < 8 {
		return layers.UDP{}, nil, fmt.Errorf("%w: UDP header needs %d bytes, have %d",
			layers.ErrTruncated, 8, len(data))
	}
	u := layers.UDP{
		SrcPort: binary.BigEndian.Uint16(data[0:]),
		DstPort: binary.BigEndian.Uint16(data[2:]),
		Length:  binary.BigEndian.Uint16(data[4:]),
	}
	if int(u.Length) < 8 {
		return layers.UDP{}, nil, fmt.Errorf("layers: UDP length %d below header size", u.Length)
	}
	if int(u.Length) > len(data) {
		return layers.UDP{}, nil, fmt.Errorf("%w: UDP length %d exceeds %d available",
			layers.ErrTruncated, u.Length, len(data))
	}
	return u, data[8:u.Length], nil
}

// checkAgainstRef decodes frame through DecodeInto into p, a Packet that
// already holds another frame, and through DecodePacket, and requires
// both to match refDecode: the same error text, or equal Packets field
// for field, Payload bounds included.
func checkAgainstRef(t *testing.T, name string, p *layers.Packet, ts time.Time, frame []byte) error {
	t.Helper()
	want, wantErr := refDecode(ts, frame)
	fresh, freshErr := layers.DecodePacket(ts, frame)
	err := layers.DecodeInto(p, ts, frame)
	for _, got := range []struct {
		call string
		err  error
	}{{"DecodeInto over a used Packet", err}, {"DecodePacket", freshErr}} {
		if (got.err == nil) != (wantErr == nil) || (got.err != nil && got.err.Error() != wantErr.Error()) {
			t.Fatalf("%s: %s error %v, reference error %v", name, got.call, got.err, wantErr)
		}
	}
	if wantErr != nil {
		return wantErr
	}
	if !reflect.DeepEqual(*p, want) {
		t.Fatalf("%s: DecodeInto over a used Packet\n%+v\nreference\n%+v", name, *p, want)
	}
	if !reflect.DeepEqual(*fresh, want) {
		t.Fatalf("%s: DecodePacket\n%+v\nreference\n%+v", name, *fresh, want)
	}
	return nil
}

// TestDecodeIntoReuse decodes every hand-built frame, then every frame
// of a rendered capture, into one reused Packet and checks each result
// against refDecode: no field of an earlier frame may survive into a
// later one, and no field may be read from the wrong bytes.
func TestDecodeIntoReuse(t *testing.T) {
	var p layers.Packet
	for i, fr := range handBuiltFrames(t) {
		ts := time.Unix(1700000000, int64(i)*1e6)
		if err := checkAgainstRef(t, fr.name, &p, ts, fr.data); !errors.Is(err, fr.err) {
			t.Fatalf("%s: reference error %v, want %v", fr.name, err, fr.err)
		}
	}
	for i, frame := range captureFrames(t) {
		if err := checkAgainstRef(t, fmt.Sprintf("capture frame %d", i), &p, time.Unix(1700000001, int64(i)), frame); err != nil {
			t.Fatalf("capture frame %d: %v", i, err)
		}
	}
}

// captureFrames renders a short TinyScript session with one QUIC noise
// flow through the simulator's capture writer and returns its frames:
// handshakes, data segments, FINs and UDP datagrams as the attack reads
// them.
func captureFrames(tb testing.TB) [][]byte {
	tb.Helper()
	g := script.TinyScript()
	tr, err := session.Run(session.Config{
		Graph: g, Encoding: media.Encode(g, media.DefaultLadder, 42),
		Viewer:    viewer.SamplePopulation(1, wire.NewRNG(1))[0],
		Condition: profiles.Fig2Ubuntu, SessionID: "fuzz-seed", Seed: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := capture.WritePcapMulti(&buf, tr, capture.MultiOptions{
		Options: capture.Options{Seed: 1}, NoiseFlows: 1,
		Transport: quicrec.TransportQUIC, TransportSet: true,
	}); err != nil {
		tb.Fatal(err)
	}
	rd, err := pcapio.NewBytesReader(buf.Bytes())
	if err != nil {
		tb.Fatal(err)
	}
	recs, err := rd.ReadAll()
	if err != nil {
		tb.Fatal(err)
	}
	frames := make([][]byte, len(recs))
	for i, r := range recs {
		frames[i] = r.Data
	}
	return frames
}

// FuzzDecodePacket checks that no frame panics the decoder and that
// DecodeInto, run on a Packet already holding another frame, and
// DecodePacket both return exactly what refDecode does: the same error
// text, or an equal Packet.
func FuzzDecodePacket(f *testing.F) {
	hand := handBuiltFrames(f)
	for _, fr := range hand {
		f.Add(fr.data)
	}
	frames := captureFrames(f)
	for i := 0; i < len(frames); i += 1 + len(frames)/32 {
		f.Add(frames[i])
	}
	ts := time.Unix(1700000000, 0)
	prev, err := layers.DecodePacket(ts, hand[0].data)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		p := *prev
		if checkAgainstRef(t, "fuzz input", &p, ts, frame) == nil {
			checkOrient(t, &p, prev.Flow())
		}
	})
}

// checkOrient holds Packet.Orient to Flow: against the packet's own key,
// its reverse, other's key and reverse, and each of those with one field
// changed, Orient must say Along exactly when p.Flow() is the key, and
// Against exactly when p.Flow() is the key's reverse and not the key.
func checkOrient(t *testing.T, p *layers.Packet, other layers.FlowKey) {
	t.Helper()
	own := p.Flow()
	var keys []layers.FlowKey
	for _, k := range []layers.FlowKey{own, own.Reverse(), other, other.Reverse()} {
		keys = append(keys, k)
		for i := range 5 {
			m := k
			switch i {
			case 0:
				m.Proto ^= layers.IPProtocolUDP
			case 1:
				m.SrcPort++
			case 2:
				m.DstPort = m.SrcPort
			case 3:
				m.SrcAddr = m.DstAddr
			case 4:
				m.DstAddr = m.DstAddr.Next()
			}
			keys = append(keys, m)
		}
	}
	for _, k := range keys {
		got := p.Orient(&k)
		along, against := own == k, own != k && own == k.Reverse()
		if (got == layers.Along) != along || (got == layers.Against) != against {
			t.Fatalf("Orient(%v) of a packet keyed %v = %d, want along %v, against %v", k, own, got, along, against)
		}
	}
}

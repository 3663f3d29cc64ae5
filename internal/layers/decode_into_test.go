package layers_test

import (
	"bytes"
	"errors"
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
		{"ipv4/tcp again", v4tcp, nil},
	}
}

// TestDecodeIntoReuse decodes every frame into one reused Packet and
// checks each result against a fresh DecodePacket: no field of an
// earlier frame may survive into a later one.
func TestDecodeIntoReuse(t *testing.T) {
	var p layers.Packet
	for i, fr := range handBuiltFrames(t) {
		ts := time.Unix(1700000000, int64(i)*1e6)
		want, wantErr := layers.DecodePacket(ts, fr.data)
		err := layers.DecodeInto(&p, ts, fr.data)
		if !errors.Is(wantErr, fr.err) {
			t.Fatalf("%s: DecodePacket error %v, want %v", fr.name, wantErr, fr.err)
		}
		if wantErr != nil {
			if err == nil || err.Error() != wantErr.Error() {
				t.Errorf("%s: DecodeInto error %v, DecodePacket error %v", fr.name, err, wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: DecodeInto: %v", fr.name, err)
		}
		if !reflect.DeepEqual(p, *want) {
			t.Errorf("%s: reused decode\n%+v\nwant\n%+v", fr.name, p, *want)
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
// DecodeInto, run on a Packet already holding another frame, returns
// exactly what DecodePacket does: the same error, or an equal Packet.
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
		want, wantErr := layers.DecodePacket(ts, frame)
		p := *prev
		err := layers.DecodeInto(&p, ts, frame)
		switch {
		case (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()):
			t.Fatalf("DecodeInto error %v, DecodePacket error %v", err, wantErr)
		case err == nil && !reflect.DeepEqual(p, *want):
			t.Fatalf("DecodeInto over a used Packet\n%+v\nwant\n%+v", p, *want)
		}
	})
}

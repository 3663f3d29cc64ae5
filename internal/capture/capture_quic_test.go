package capture

import (
	"bytes"
	"testing"

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

func quicTestTrace(t *testing.T, seed uint64) *session.Trace {
	t.Helper()
	g := script.Bandersnatch()
	enc := media.Encode(g, media.DefaultLadder, 42)
	pop := viewer.SamplePopulation(1, wire.NewRNG(seed))
	tr, err := session.Run(session.Config{
		Graph: g, Encoding: enc, Viewer: pop[0],
		Condition: profiles.Fig2Ubuntu, SessionID: "q-sess", Seed: seed,
		Wire: session.Wire{Transport: quicrec.TransportQUIC},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestWritePcapQUIC(t *testing.T) {
	tr := quicTestTrace(t, 7)
	var buf bytes.Buffer
	if err := WritePcap(&buf, tr, Options{Seed: 7}); err != nil {
		t.Fatal(err)
	}
	r, err := pcapio.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ep := DefaultEndpoints()
	var cFrames, sFrames, cBytes, longHeaders int
	for {
		rec, err := r.Next()
		if err != nil {
			break
		}
		p, err := layers.DecodePacket(rec.Timestamp, rec.Data)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if p.Proto != layers.IPProtocolUDP {
			t.Fatalf("QUIC capture contains a non-UDP packet: proto %d", p.Proto)
		}
		k := p.Flow()
		switch {
		case k.SrcPort == ep.ClientPort:
			cFrames++
			cBytes += len(p.Payload)
			if quicrec.IsLongHeader(p.Payload[0]) {
				longHeaders++
			}
		case k.DstPort == ep.ClientPort:
			sFrames++
		default:
			t.Fatalf("unexpected flow %v", k)
		}
		if !quicrec.Sniff(p.Payload) {
			t.Fatal("payload does not sniff as QUIC")
		}
	}
	if cFrames != len(tr.ClientToServer.Datagrams) {
		t.Errorf("client frames = %d, want one per datagram (%d)",
			cFrames, len(tr.ClientToServer.Datagrams))
	}
	if sFrames != len(tr.ServerToClient.Datagrams) {
		t.Errorf("server frames = %d, want %d", sFrames, len(tr.ServerToClient.Datagrams))
	}
	if cBytes != len(tr.ClientToServer.Bytes) {
		t.Errorf("client UDP payload bytes = %d, want %d", cBytes, len(tr.ClientToServer.Bytes))
	}
	if longHeaders == 0 {
		t.Error("no long-header client datagrams (handshake missing)")
	}
}

func TestWritePcapMultiQUICNoiseInheritsTransport(t *testing.T) {
	tr := quicTestTrace(t, 11)
	var buf bytes.Buffer
	if err := WritePcapMulti(&buf, tr, MultiOptions{
		Options: Options{Seed: 11}, NoiseFlows: 2,
	}); err != nil {
		t.Fatal(err)
	}
	r, err := pcapio.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	flows := map[layers.FlowKey]int{}
	var last int64
	for {
		rec, err := r.Next()
		if err != nil {
			break
		}
		p, err := layers.DecodePacket(rec.Timestamp, rec.Data)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if p.Proto != layers.IPProtocolUDP {
			t.Fatalf("noise did not inherit QUIC transport: proto %d", p.Proto)
		}
		k, _ := p.Flow().Canonical()
		flows[k]++
		if ns := rec.Timestamp.UnixNano(); ns < last {
			t.Fatal("frames not in time order")
		} else {
			last = ns
		}
	}
	if len(flows) != 3 {
		t.Errorf("distinct conversations = %d, want 3 (session + 2 noise)", len(flows))
	}
}

func TestWritePcapQUICLeanTraceErrors(t *testing.T) {
	g := script.Bandersnatch()
	enc := media.Encode(g, media.DefaultLadder, 42)
	pop := viewer.SamplePopulation(1, wire.NewRNG(3))
	tr, err := session.Run(session.Config{
		Graph: g, Encoding: enc, Viewer: pop[0],
		Condition: profiles.Fig2Ubuntu, Seed: 3,
		Wire: session.Wire{Transport: quicrec.TransportQUIC}, OmitServerPayload: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePcap(&buf, tr, Options{Seed: 3}); err == nil {
		t.Fatal("want error rendering a lean QUIC trace (server payload missing)")
	}
}

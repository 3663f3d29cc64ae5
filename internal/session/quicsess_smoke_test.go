package session

import (
	"testing"

	"repro/internal/media"
	"repro/internal/profiles"
	"repro/internal/quicrec"
	"repro/internal/script"
	"repro/internal/viewer"
	"repro/internal/wire"
)

func TestQUICSessionSmoke(t *testing.T) {
	g := script.Bandersnatch()
	enc := media.Encode(g, media.DefaultLadder, 42)
	pop := viewer.SamplePopulation(1, wire.NewRNG(1))
	tr, err := Run(Config{Graph: g, Encoding: enc, Viewer: pop[0],
		Condition: profiles.Fig2Ubuntu, Seed: 42, Wire: Wire{Transport: quicrec.TransportQUIC},
		OmitServerPayload: false})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("client dgs=%d server dgs=%d writes=%d cbytes=%d sbytes=%d",
		len(tr.ClientToServer.Datagrams), len(tr.ServerToClient.Datagrams),
		len(tr.ClientWrites), len(tr.ClientToServer.Bytes), len(tr.ServerToClient.Bytes))
	// offsets must tile Bytes
	var sum int
	for _, d := range tr.ClientToServer.Datagrams {
		if int(d.Offset) != sum {
			t.Fatalf("client datagram offset %d want %d", d.Offset, sum)
		}
		sum += d.Size
	}
	if sum != len(tr.ClientToServer.Bytes) {
		t.Fatalf("client datagrams cover %d of %d bytes", sum, len(tr.ClientToServer.Bytes))
	}
	sum = 0
	for _, d := range tr.ServerToClient.Datagrams {
		if int(d.Offset) != sum {
			t.Fatalf("server datagram offset %d want %d", d.Offset, sum)
		}
		sum += d.Size
	}
	if sum != len(tr.ServerToClient.Bytes) {
		t.Fatalf("server datagrams cover %d of %d bytes", sum, len(tr.ServerToClient.Bytes))
	}
	for _, w := range tr.ClientWrites {
		if len(w.Records) != 0 || len(w.Datagrams) == 0 {
			t.Fatalf("write %v: records=%d datagrams=%d", w.Label, len(w.Records), len(w.Datagrams))
		}
	}
}

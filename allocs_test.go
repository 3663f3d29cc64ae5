package whitemirror

import (
	"testing"

	"repro/internal/pcapio"
)

// TestMonitorAllocsPerPacket bounds the Monitor's allocations per packet.
// Every frame decodes into one reused Packet, each flow owns its two
// reassembly streams, and scanned chunks are released at once, so what
// remains are per-flow and per-record costs: a capture must cost under
// one allocation per ten packets, through InferPcap, through a Monitor
// fed an interleaved multi-flow capture in one Feed, and frame by frame
// through FeedPacket into a rolling-window Monitor.
func TestMonitorAllocsPerPacket(t *testing.T) {
	tr, err := Simulate(SessionOptions{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	atk, err := TrainAttacker(TrainingOptions{Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	single, err := CapturePcap(tr, 21)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := CapturePcapMulti(tr, 21, 6)
	if err != nil {
		t.Fatal(err)
	}
	frames := readFrames(t, multi)
	cases := []struct {
		name string
		pcap []byte
		run  func() error
	}{
		{"InferPcap", single, func() error {
			_, err := atk.InferPcap(single)
			return err
		}},
		{"Multi", multi, func() error {
			m := NewMonitor(atk, MonitorOptions{})
			if err := m.Feed(multi); err != nil {
				return err
			}
			_, err := m.Close()
			return err
		}},
		{"FeedPacket", multi, func() error {
			m := NewMonitor(atk, MonitorOptions{Window: &MonitorWindow{}})
			for _, rec := range frames {
				if err := m.FeedPacket(rec.Timestamp, rec.Data); err != nil {
					return err
				}
			}
			_, err := m.Close()
			return err
		}},
	}
	for _, c := range cases {
		recs := readFrames(t, c.pcap)
		var runErr error
		allocs := testing.AllocsPerRun(3, func() {
			if err := c.run(); err != nil {
				runErr = err
			}
		})
		if runErr != nil {
			t.Fatalf("%s: %v", c.name, runErr)
		}
		t.Logf("%s: %.0f allocations over %d packets", c.name, allocs, len(recs))
		if allocs*10 >= float64(len(recs)) {
			t.Errorf("%s: %.0f allocations over %d packets, want under one per ten packets",
				c.name, allocs, len(recs))
		}
	}
}

// readFrames returns every record of an in-memory pcap.
func readFrames(t *testing.T, pcap []byte) []pcapio.Record {
	t.Helper()
	rd, err := pcapio.NewBytesReader(pcap)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

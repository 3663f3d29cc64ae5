package whitemirror

import (
	"runtime"
	"testing"

	"repro/internal/pcapio"
)

// TestMonitorAllocsPerPacket bounds the Monitor's allocations per packet
// and per byte. Every frame decodes into one reused Packet, each flow
// owns its two reassembly streams, which hand in-order bytes straight to
// their record scanners, and the fed bytes are parsed in place, so what
// remains are per-flow and per-record costs and the copies of
// out-of-order segments. A
// capture must cost under 64 KiB allocated per MiB fed through InferPcap,
// through a Monitor fed an interleaved multi-flow capture in one Feed,
// frame by frame through FeedPacket into a rolling-window Monitor, and
// in the 64 KiB Feed chunks of a rolling-window Monitor with an event
// callback, the shape wmattack -live runs. The first three must also
// cost under one allocation per ten packets; the live row is exempt,
// because every event it delivers is an allocation of its own. The two
// batch rows have tighter bounds of their own, since a batch Monitor
// drops server record descriptors as it scans them: InferPcap at most 62
// allocations and under 8 KiB per MiB, Multi under 24 KiB per MiB. The
// session is seed 21's 3-choice walk.
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
		name      string
		pcap      []byte
		events    bool    // delivers events: no per-packet bound
		maxAllocs float64 // row bound on allocations; 0: none
		maxKiB    float64 // bound on KiB per MiB fed, 64 at most
		run       func() error
	}{
		{"InferPcap", single, false, 62, 8, func() error {
			_, err := atk.InferPcap(single)
			return err
		}},
		{"Multi", multi, false, 0, 24, func() error {
			m := NewMonitor(atk, MonitorOptions{})
			if err := m.Feed(multi); err != nil {
				return err
			}
			_, err := m.Close()
			return err
		}},
		{"FeedPacket", multi, false, 0, 64, func() error {
			m := NewMonitor(atk, MonitorOptions{Window: &MonitorWindow{}})
			for _, rec := range frames {
				if err := m.FeedPacket(rec.Timestamp, rec.Data); err != nil {
					return err
				}
			}
			_, err := m.Close()
			return err
		}},
		{"Live", multi, true, 0, 64, func() error {
			m := NewMonitor(atk, MonitorOptions{Window: &MonitorWindow{}, OnEvent: func(MonitorEvent) {}})
			for off := 0; off < len(multi); off += 64 << 10 {
				if err := m.Feed(multi[off:min(off+64<<10, len(multi))]); err != nil {
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
		kibPerMiB := allocKiB(c.run) / (float64(len(c.pcap)) / (1 << 20))
		t.Logf("%s: %.0f allocations over %d packets, %.1f KiB allocated per MiB fed",
			c.name, allocs, len(recs), kibPerMiB)
		if !c.events && allocs*10 >= float64(len(recs)) {
			t.Errorf("%s: %.0f allocations over %d packets, want under one per ten packets",
				c.name, allocs, len(recs))
		}
		if c.maxAllocs > 0 && allocs > c.maxAllocs {
			t.Errorf("%s: %.0f allocations, want at most %.0f", c.name, allocs, c.maxAllocs)
		}
		if kibPerMiB >= c.maxKiB {
			t.Errorf("%s: %.1f KiB allocated per MiB fed, want under %.0f", c.name, kibPerMiB, c.maxKiB)
		}
	}
}

// allocKiB returns the KiB that one call of run allocates, averaged over
// three calls.
func allocKiB(run func() error) float64 {
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		_ = run()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
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

// TestTrainAttackerAllocation bounds the bytes one TrainAttacker call
// allocates, trained as the benchmarks above train it (Fig2Ubuntu, one
// worker, seed 22): at most 0.35 MB for TLS 1.2 (3 sessions) and 8 MB
// for QUIC (10 sessions). Lean sessions write no bytes, and each builds
// its server descriptor list in reused scratch and copies it out once;
// sessions that wrote their client bytes and regrew their server lists
// from empty cost about 0.68 MB and 22.9 MB.
func TestTrainAttackerAllocation(t *testing.T) {
	for _, tc := range []struct {
		wire     string
		sessions int
		maxMB    float64
	}{
		{"tls1.2", 3, 0.35},
		{"quic", 10, 8},
	} {
		opts := TrainingOptions{Condition: ConditionUbuntu, Sessions: tc.sessions, Seed: 22,
			Workers: 1, Wire: mustWire(t, tc.wire)}
		train := func() {
			if _, err := TrainAttacker(opts); err != nil {
				t.Fatal(err)
			}
		}
		train() // the title's encoding and the path table are built once
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			train()
		}
		runtime.ReadMemStats(&after)
		mb := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1e6
		t.Logf("%s: %.3f MB allocated per TrainAttacker call", tc.wire, mb)
		if mb > tc.maxMB {
			t.Errorf("%s: %.3f MB allocated per TrainAttacker call, bound %.2f MB", tc.wire, mb, tc.maxMB)
		}
	}
}

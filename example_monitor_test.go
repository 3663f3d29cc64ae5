package whitemirror

import (
	"fmt"
	"time"
)

// ExampleNewMonitor shows the streaming attack: the capture — here the
// interactive session interleaved with two bulk-streaming noise flows —
// is fed to a Monitor in chunks, the way an on-path eavesdropper tails a
// link, and events fire as the attack progresses. Close returns the same
// Inference the one-shot InferPcap produces, the very pointer that the
// attacked flow's SessionFinalized carried.
func ExampleNewMonitor() {
	tr, _ := Simulate(SessionOptions{Seed: 1, Condition: ConditionUbuntu})
	pcapBytes, _ := CapturePcapMulti(tr, 1, 2) // 2 concurrent noise flows
	atk, _ := TrainAttacker(TrainingOptions{Condition: ConditionUbuntu, Seed: 99})

	finalized := map[*Inference]FlowKey{}
	m := NewMonitor(atk, MonitorOptions{OnEvent: func(ev MonitorEvent) {
		switch e := ev.(type) {
		case FlowDetected:
			// e.Flow produced an in-band report — a candidate session.
		case ChoiceInferred:
			// Running decisions and DecodeMargin are available here.
		case SessionFinalized:
			finalized[e.Inference] = e.Flow // one per flow with reports
		}
	}})
	const chunk = 64 << 10 // feed 64 KiB at a time
	for off := 0; off < len(pcapBytes); off += chunk {
		end := min(off+chunk, len(pcapBytes))
		if err := m.Feed(pcapBytes[off:end]); err != nil {
			panic(err)
		}
	}
	inf, _ := m.Close()

	correct, total := 0, len(tr.GroundTruthDecisions())
	for i, d := range tr.GroundTruthDecisions() {
		if i < len(inf.Decisions) && inf.Decisions[i] == d {
			correct++
		}
	}
	fmt.Printf("attacked flow: %s, choices recovered: %d/%d\n", finalized[inf], correct, total)
	// Output: attacked flow: 192.168.1.23:51732 > 198.51.100.7:443, choices recovered: 8/8
}

// ExampleNewMonitor_rollingWindow is the link-tap configuration: with
// MonitorOptions.Window set, reassembly holds only out-of-order bytes
// (in-order bytes go straight to the record scanner, as in batch mode),
// and each flow concludes on its FIN/RST or idle timeout with
// its own event — SessionFinalized for any flow that classified in-band
// reports (noise flows whose requests happen to collide with a report
// band conclude this way too, with low matched counts that lose the final
// selection), FlowExpired otherwise — all before Close, so one monitor
// holds a tap indefinitely in bounded memory.
func ExampleNewMonitor_rollingWindow() {
	tr, _ := Simulate(SessionOptions{Seed: 1, Condition: ConditionUbuntu})
	pcapBytes, _ := CapturePcapMulti(tr, 1, 2)
	atk, _ := TrainAttacker(TrainingOptions{Condition: ConditionUbuntu, Seed: 99})

	concluded := 0
	m := NewMonitor(atk, MonitorOptions{
		Window: &MonitorWindow{IdleTimeout: 90 * time.Second},
		OnEvent: func(ev MonitorEvent) {
			switch ev.(type) {
			case SessionFinalized, FlowExpired:
				concluded++
			}
		},
	})
	if err := m.Feed(pcapBytes); err != nil {
		panic(err)
	}
	stats := m.Stats() // every flow already concluded: nothing retained
	inf, err := m.Close()
	if err != nil {
		panic(err)
	}
	correct, total := 0, len(tr.GroundTruthDecisions())
	for i, d := range tr.GroundTruthDecisions() {
		if i < len(inf.Decisions) && inf.Decisions[i] == d {
			correct++
		}
	}
	fmt.Printf("flows concluded before Close: %d, bytes retained at end of feed: %d, choices recovered: %d/%d\n",
		concluded, stats.RetainedBytes, correct, total)
	// Output: flows concluded before Close: 3, bytes retained at end of feed: 0, choices recovered: 8/8
}

// ExampleNewMonitor_tls13 attacks a modern stack: the session negotiates
// the TLS 1.3 record layer with RFC 8446 pad-to-64 record padding, so
// content types are hidden inside encrypted records and every length is
// bucket-aligned. The attacker profiles under the same record version —
// the 1.3 suites move every band — and the trainer widens its learned
// bands by the padding envelope; the streaming monitor then finds and
// decodes the interactive flow exactly as it does for 1.2 captures.
// ExampleNewMonitor_quic attacks an HTTP/3 stack: the session speaks
// QUIC v1 over UDP, so there are no cleartext record boundaries at all —
// the only observables are datagram sizes and inter-arrival gaps. The
// attacker trains on burst totals (a report merges on the wire with the
// request fired in the same event-loop turn, and the trainer learns the
// composite); profiling draws more sessions than TLS needs, because
// composite bands must cover the merged request's size range. The
// monitor announces the flow with QUICFlowObserved when the long-header
// handshake passes, then segments 1-RTT datagrams into bursts and
// decodes choices exactly as it does record lengths.
func ExampleNewMonitor_quic() {
	quic, _ := ParseWire("quic")
	tr, _ := Simulate(SessionOptions{
		Seed: 1, Condition: ConditionUbuntu, Wire: quic,
	})
	pcapBytes, _ := CapturePcapMulti(tr, 1, 2) // noise flows speak QUIC too
	atk, _ := TrainAttacker(TrainingOptions{
		Condition: ConditionUbuntu, Seed: 99,
		Wire: quic, Sessions: 10,
	})

	var observed FlowKey
	finalized := map[*Inference]FlowKey{}
	m := NewMonitor(atk, MonitorOptions{OnEvent: func(ev MonitorEvent) {
		switch e := ev.(type) {
		case QUICFlowObserved:
			observed = e.Flow // long-header packet: a QUIC handshake on the link
		case SessionFinalized:
			finalized[e.Inference] = e.Flow
		}
	}})
	if err := m.Feed(pcapBytes); err != nil {
		panic(err)
	}
	inf, err := m.Close()
	if err != nil {
		panic(err)
	}
	correct, total := 0, len(tr.GroundTruthDecisions())
	for i, d := range tr.GroundTruthDecisions() {
		if i < len(inf.Decisions) && inf.Decisions[i] == d {
			correct++
		}
	}
	fmt.Printf("QUIC flows seen: %v, attacked flow: %s, choices recovered: %d/%d\n",
		observed != FlowKey{}, finalized[inf], correct, total)
	// Output: QUIC flows seen: true, attacked flow: udp 192.168.1.23:51732 > 198.51.100.7:443, choices recovered: 8/8
}

func ExampleNewMonitor_tls13() {
	padded, _ := ParseWire("tls1.3+pad-to-64")
	tr, _ := Simulate(SessionOptions{
		Seed: 1, Condition: ConditionUbuntu, Wire: padded,
	})
	pcapBytes, _ := CapturePcapMulti(tr, 1, 2) // noise flows speak 1.3 too
	atk, _ := TrainAttacker(TrainingOptions{
		Condition: ConditionUbuntu, Seed: 99, Wire: padded,
	})

	finalized := map[*Inference]FlowKey{}
	m := NewMonitor(atk, MonitorOptions{OnEvent: func(ev MonitorEvent) {
		if e, ok := ev.(SessionFinalized); ok {
			finalized[e.Inference] = e.Flow
		}
	}})
	if err := m.Feed(pcapBytes); err != nil {
		panic(err)
	}
	inf, err := m.Close()
	if err != nil {
		panic(err)
	}
	correct, total := 0, len(tr.GroundTruthDecisions())
	for i, d := range tr.GroundTruthDecisions() {
		if i < len(inf.Decisions) && inf.Decisions[i] == d {
			correct++
		}
	}
	fmt.Printf("attacked flow: %s, choices recovered: %d/%d\n", finalized[inf], correct, total)
	// Output: attacked flow: 192.168.1.23:51732 > 198.51.100.7:443, choices recovered: 8/8
}

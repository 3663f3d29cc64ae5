package attack

import (
	"fmt"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"repro/internal/layers"
	"repro/internal/profiles"
)

// gapOrderingEvents builds the crafted gap capture and returns the event
// stream: a real session fed partway (flow A, with in-band evidence), a
// second two-direction flow B opened alongside it, then — after a
// ten-minute silence — B aborts with an RST whose timestamp jump
// triggers the idle sweep.
func gapOrderingEvents(t *testing.T, atk *Attacker, data []byte, shards int) []Event {
	t.Helper()
	var events []Event
	m := NewMonitor(atk, MonitorOptions{
		Shards: shards,
		Window: &Window{IdleTimeout: 60 * time.Second},
		OnEvent: func(ev Event) {
			events = append(events, ev)
		},
	})
	n := feedMonitorPackets(t, m, data, 0.6)
	if n == 0 {
		t.Fatal("no packets fed")
	}

	bKey := layers.FlowKey{
		SrcAddr: netip.MustParseAddr("192.168.1.77"),
		DstAddr: netip.MustParseAddr("198.51.100.99"),
		SrcPort: 40100, DstPort: 443,
	}
	base := m.lastClock(t)
	syn, err := layers.BuildTCPFrame(bKey, layers.Ethernet{}, layers.TCP{Seq: 1, Flags: layers.TCPSyn}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	synAck, err := layers.BuildTCPFrame(bKey.Reverse(), layers.Ethernet{}, layers.TCP{Seq: 1, Ack: 2, Flags: layers.TCPSyn | layers.TCPAck}, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	rst, err := layers.BuildTCPFrame(bKey, layers.Ethernet{}, layers.TCP{Seq: 2, Flags: layers.TCPRst}, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		ts    time.Time
		frame []byte
	}{
		{base.Add(time.Second), syn},
		{base.Add(time.Second + 50*time.Millisecond), synAck},
		{base.Add(10 * time.Minute), rst}, // the clock jump AND flow B's own abort
	} {
		if err := m.FeedPacket(step.ts, step.frame); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Close(); err != nil {
		t.Fatal(err)
	}
	return events
}

// lastClock exposes the monitor's capture clock to the gap test (the
// crafted flow-B packets must postdate the session's tail).
func (m *Monitor) lastClock(t *testing.T) time.Time {
	t.Helper()
	return m.clock
}

// TestMonitorSweepOrderingOnClockJump pins the idle-sweep ordering fix:
// when one packet's timestamp jump triggers the sweep, flows the sweep
// finalizes must emit BEFORE any event caused by that packet, keeping
// the event stream monotone in capture time. Here the silent session
// (flow A) must finalize before flow B's RST-driven expiry — the old
// post-packet sweep emitted them in the opposite order. The sharded
// engine must produce the identical stream.
func TestMonitorSweepOrderingOnClockJump(t *testing.T) {
	cond := profiles.Fig2Ubuntu
	atk := trainedAttacker(t, cond, []uint64{101, 102, 103})
	tr := runSession(t, 555, cond)
	data := capturedSession(t, tr, 7)

	want := gapOrderingEvents(t, atk, data, 0)

	finalizedAt, rstExpiredAt := -1, -1
	for i, ev := range want {
		switch e := ev.(type) {
		case SessionFinalized:
			if finalizedAt < 0 {
				finalizedAt = i
			}
		case FlowExpired:
			if e.Reason == "rst" {
				rstExpiredAt = i
			}
		}
	}
	if finalizedAt < 0 {
		t.Fatal("silent session never finalized on the clock jump")
	}
	if rstExpiredAt < 0 {
		t.Fatal("flow B's RST expiry never fired")
	}
	if finalizedAt > rstExpiredAt {
		t.Fatalf("sweep finalization (event %d) emitted after the triggering packet's expiry (event %d); stream not monotone in capture time",
			finalizedAt, rstExpiredAt)
	}
	// Capture-time monotonicity across the jump, the property the
	// ordering fix exists for.
	var last time.Time
	for i, ev := range want {
		var at time.Time
		switch e := ev.(type) {
		case FlowDetected:
			at = e.At
		case ChoiceInferred:
			at = e.At
		case FlowExpired:
			at = e.At
		default:
			continue
		}
		if at.Before(last) {
			t.Fatalf("event %d at %v precedes event time %v; stream not monotone", i, at, last)
		}
		last = at
	}

	for _, shards := range []int{1, 2, 4} {
		got := gapOrderingEvents(t, atk, data, shards)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: gap-capture event stream diverged from single-threaded (%d vs %d events)",
				shards, len(got), len(want))
		}
	}
}

// feedFlowStorm feeds n one-packet flows spread over one second, then
// walks the capture clock forward in 20s steps so clock-jump sweeps age
// every flow out through the timing wheel. Returns the monitor's final
// stats before Close.
func feedFlowStorm(t *testing.T, m *Monitor, n int) MonitorStats {
	t.Helper()
	base := time.Unix(1700000000, 0)
	for i := 0; i < n; i++ {
		key := layers.FlowKey{
			SrcAddr: netip.MustParseAddr(fmt.Sprintf("10.0.%d.%d", i/250%250+1, i%250+1)),
			DstAddr: netip.MustParseAddr("198.51.100.99"),
			SrcPort: uint16(1025 + i%60000), DstPort: 443,
		}
		frame, err := layers.BuildTCPFrame(key, layers.Ethernet{}, layers.TCP{Seq: 1, Flags: layers.TCPSyn}, nil, uint16(i))
		if err != nil {
			t.Fatal(err)
		}
		ts := base.Add(time.Duration(i) * time.Millisecond / 10)
		if err := m.FeedPacket(ts, frame); err != nil {
			t.Fatal(err)
		}
	}
	// A single long-lived flow ticks the clock forward; each 20s jump
	// exceeds IdleTimeout/4 and forces a sweep.
	tick := layers.FlowKey{
		SrcAddr: netip.MustParseAddr("192.168.9.9"),
		DstAddr: netip.MustParseAddr("198.51.100.99"),
		SrcPort: 39999, DstPort: 443,
	}
	for step := 1; step <= 6; step++ {
		frame, err := layers.BuildTCPFrame(tick, layers.Ethernet{}, layers.TCP{Seq: uint32(step), Flags: layers.TCPAck}, nil, uint16(step))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.FeedPacket(base.Add(time.Duration(step)*20*time.Second), frame); err != nil {
			t.Fatal(err)
		}
	}
	return m.Stats()
}

// TestMonitorTenThousandFlows holds ten thousand concurrent flows in one
// rolling window and ages them all out: the timing wheel must do
// O(expired + re-armed) work — not O(flows) per sweep — and the sharded
// engine must spread the flows evenly and reach the same counts.
func TestMonitorTenThousandFlows(t *testing.T) {
	const flows = 10000
	atk := trainedAttacker(t, profiles.Fig2Ubuntu, []uint64{101})

	m := NewMonitor(atk, MonitorOptions{Window: &Window{IdleTimeout: 60 * time.Second}})
	st := feedFlowStorm(t, m, flows)
	if _, err := m.Close(); err != ErrNoTLSConversation {
		t.Fatalf("Close error = %v, want ErrNoTLSConversation", err)
	}
	if st.ExpiredFlows != flows {
		t.Errorf("ExpiredFlows = %d, want %d (every stormed flow idles out)", st.ExpiredFlows, flows)
	}
	if st.Flows != 1 {
		t.Errorf("Flows = %d at end, want 1 (only the clock-tick flow)", st.Flows)
	}
	if st.Sweeps == 0 {
		t.Fatal("no sweeps ran")
	}
	// The O(expired) bound: a linear table scan touches flows × sweeps
	// entries (~ 60k+ here); the wheel touches each flow once at expiry
	// plus a handful of re-arms.
	if st.SweepTouched > 3*flows {
		t.Errorf("SweepTouched = %d across %d sweeps; want O(expired) ~ %d, not O(flows × sweeps)",
			st.SweepTouched, st.Sweeps, flows)
	}
	if st.RetainedBytes > 1<<20 {
		t.Errorf("RetainedBytes = %d after storm, want bounded", st.RetainedBytes)
	}

	// Sharded: same aggregate counts, near-even flow distribution.
	ms := NewMonitor(atk, MonitorOptions{Shards: 4, Window: &Window{IdleTimeout: 60 * time.Second}})
	sts := feedFlowStorm(t, ms, flows)
	if _, err := ms.Close(); err != ErrNoTLSConversation {
		t.Fatalf("sharded Close error = %v, want ErrNoTLSConversation", err)
	}
	if sts.ExpiredFlows != flows {
		t.Errorf("sharded ExpiredFlows = %d, want %d", sts.ExpiredFlows, flows)
	}
	if len(sts.Shards) != 4 {
		t.Fatalf("Stats.Shards has %d entries, want 4", len(sts.Shards))
	}
	if sts.SweepTouched > 3*flows {
		t.Errorf("sharded SweepTouched = %d, want O(expired)", sts.SweepTouched)
	}
}

// TestMonitorShardBalance checks the RSS hash spreads a flow storm
// evenly: with 4 shards and thousands of flows, every shard should hold
// between half and twice the even share at peak.
func TestMonitorShardBalance(t *testing.T) {
	const flows = 4000
	atk := trainedAttacker(t, profiles.Fig2Ubuntu, []uint64{101})
	m := NewMonitor(atk, MonitorOptions{Shards: 4, Window: &Window{IdleTimeout: 600 * time.Second}})
	base := time.Unix(1700000000, 0)
	for i := 0; i < flows; i++ {
		key := layers.FlowKey{
			SrcAddr: netip.MustParseAddr(fmt.Sprintf("10.1.%d.%d", i/250%250+1, i%250+1)),
			DstAddr: netip.MustParseAddr("198.51.100.99"),
			SrcPort: uint16(1025 + i%60000), DstPort: 443,
		}
		frame, err := layers.BuildTCPFrame(key, layers.Ethernet{}, layers.TCP{Seq: 1, Flags: layers.TCPSyn}, nil, uint16(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.FeedPacket(base.Add(time.Duration(i)*time.Millisecond), frame); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if _, err := m.Close(); err != ErrNoTLSConversation {
		t.Fatalf("Close error = %v, want ErrNoTLSConversation", err)
	}
	if st.Flows != flows {
		t.Fatalf("aggregate Flows = %d, want %d", st.Flows, flows)
	}
	share := flows / 4
	for i, sh := range st.Shards {
		if sh.Flows < share/2 || sh.Flows > share*2 {
			t.Errorf("shard %d holds %d flows; want within [%d, %d] of the even share %d",
				i, sh.Flows, share/2, share*2, share)
		}
	}
}

// handKey is a hand-built client→server key on port 443.
func handKey(port uint16) layers.FlowKey {
	return layers.FlowKey{
		SrcAddr: netip.MustParseAddr("192.168.1.10"),
		DstAddr: netip.MustParseAddr("198.51.100.7"),
		SrcPort: port, DstPort: 443,
	}
}

// Hand-built TCP headers for one conversation's open, ack and reset.
var (
	handSyn    = layers.TCP{Seq: 1, Flags: layers.TCPSyn}
	handSynAck = layers.TCP{Seq: 1, Ack: 2, Flags: layers.TCPSyn | layers.TCPAck}
	handAck    = layers.TCP{Seq: 2, Ack: 2, Flags: layers.TCPAck}
	handRst    = layers.TCP{Seq: 2, Flags: layers.TCPRst}
)

// TestShardEquivalenceHandBuilt replays hand-built SYN/ACK/RST sequences
// through FeedPacket and requires every shard count to emit the unsharded
// event stream and Close error, and that stream to be the expected one.
// The two flows X and Y hash to different shards of two.
//
//   - wheel epoch: Y's shard first sees traffic half a second after X's.
//     Its wheel must still tick on the grid anchored at the first decoded
//     packet, so Y idles out on the same sweep as on one core.
//   - port reuse: X resets and its 5-tuple opens a new conversation after
//     Y was first seen; at Close the still-open flows expire in first-seen
//     order, Y before the new X.
func TestShardEquivalenceHandBuilt(t *testing.T) {
	atk := trainedAttacker(t, profiles.Fig2Ubuntu, []uint64{101})
	base := time.Unix(1700000000, 0)
	shardOf2 := func(k layers.FlowKey) int {
		canon, _ := k.Canonical()
		return shardOf(canon, 2)
	}
	x, y, z := handKey(40000), handKey(40001), handKey(50000)
	for shardOf2(y) == shardOf2(x) {
		y.SrcPort++
	}
	names := map[layers.FlowKey]string{x: "X", y: "Y", z: "Z"}

	type step struct {
		at  time.Duration
		key layers.FlowKey
		tcp layers.TCP
	}
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	cases := []struct {
		name  string
		win   Window
		steps []step
		want  []string // FlowExpired events: reason, flow, capture offset
	}{
		{
			name:  "wheel epoch",
			win:   Window{IdleTimeout: 64 * time.Second, SweepInterval: 1},
			steps: []step{{0, x, handSyn}, {ms(500), y, handSyn}, {ms(64200), z, handSyn}, {ms(64700), z, handAck}, {ms(65200), z, handAck}},
			want:  []string{"idle X 1m4.2s", "idle Y 1m5.2s", "close Z 1m5.2s"},
		},
		{
			name:  "port reuse",
			win:   Window{},
			steps: []step{{0, x, handSyn}, {0, x.Reverse(), handSynAck}, {ms(1000), y, handSyn}, {ms(2000), x, handRst}, {ms(3000), x, handSyn}},
			want:  []string{"rst X 2s", "close Y 3s", "close X 3s"},
		},
	}
	run := func(t *testing.T, win Window, steps []step, shards int) ([]Event, error) {
		var events []Event
		m := NewMonitor(atk, MonitorOptions{
			Shards:  shards,
			Window:  &win,
			OnEvent: func(ev Event) { events = append(events, ev) },
		})
		for i, st := range steps {
			frame, err := layers.BuildTCPFrame(st.key, layers.Ethernet{}, st.tcp, nil, uint16(i))
			if err != nil {
				t.Fatal(err)
			}
			if err := m.FeedPacket(base.Add(st.at), frame); err != nil {
				t.Fatal(err)
			}
		}
		_, err := m.Close()
		return events, err
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantEvents, wantErr := run(t, tc.win, tc.steps, 0)
			for _, shards := range []int{0, 1, 2, 4} {
				events, err := run(t, tc.win, tc.steps, shards)
				if err != wantErr {
					t.Errorf("shards=%d: Close error %v, want %v", shards, err, wantErr)
				}
				var got []string
				for _, ev := range events {
					e, ok := ev.(FlowExpired)
					if !ok {
						t.Fatalf("shards=%d: unexpected %T", shards, ev)
					}
					got = append(got, fmt.Sprintf("%s %s %v", e.Reason, names[e.Flow], e.At.Sub(base)))
				}
				if !reflect.DeepEqual(got, tc.want) {
					t.Errorf("shards=%d: events %q, want %q", shards, got, tc.want)
				}
				if !reflect.DeepEqual(events, wantEvents) {
					t.Errorf("shards=%d: event stream diverged from shards=0", shards)
				}
			}
		})
	}
}

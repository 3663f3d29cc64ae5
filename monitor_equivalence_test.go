package whitemirror

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"testing"

	"repro/internal/layers"
	"repro/internal/pcapio"
)

// monitorRun is what one feed of a capture through a fresh Monitor
// reports: its events (collected only when asked for, since an OnEvent
// callback also turns on the live hypothesis engine) and its Close
// result.
type monitorRun struct {
	events []MonitorEvent
	inf    *Inference
	err    error
}

// newRunMonitor builds the Monitor for one monitorRun.
func newRunMonitor(atk *Attacker, win *MonitorWindow, events bool, r *monitorRun) *Monitor {
	opts := MonitorOptions{Window: win}
	if events {
		opts.OnEvent = func(ev MonitorEvent) { r.events = append(r.events, ev) }
	}
	return NewMonitor(atk, opts)
}

// feedChunks drives a fresh Monitor over data in fixed-size chunks.
func feedChunks(atk *Attacker, data []byte, chunk int, win *MonitorWindow, events bool) monitorRun {
	var r monitorRun
	m := newRunMonitor(atk, win, events, &r)
	for off := 0; off < len(data); off += chunk {
		end := off + chunk
		if end > len(data) {
			end = len(data)
		}
		if r.err = m.Feed(data[off:end]); r.err != nil {
			return r
		}
	}
	r.inf, r.err = m.Close()
	return r
}

// feedPackets drives a fresh Monitor one decoded frame at a time.
func feedPackets(t *testing.T, atk *Attacker, data []byte, win *MonitorWindow, events bool) monitorRun {
	t.Helper()
	pr, err := pcapio.NewBytesReader(data)
	if err != nil {
		t.Fatal(err)
	}
	var r monitorRun
	m := newRunMonitor(atk, win, events, &r)
	for {
		rec, err := pr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if r.err = m.FeedPacket(rec.Timestamp, rec.Data); r.err != nil {
			return r
		}
	}
	r.inf, r.err = m.Close()
	return r
}

// feedReused drives a fresh Monitor, with events, over data through one
// reused buffer that is overwritten after every call: in Feed calls of
// chunk bytes, or frame by frame through FeedPacket when chunk is 0.
func feedReused(t *testing.T, atk *Attacker, data []byte, chunk int, win *MonitorWindow) monitorRun {
	t.Helper()
	var r monitorRun
	m := newRunMonitor(atk, win, true, &r)
	var buf []byte
	feed := func(b []byte, call func([]byte) error) bool {
		buf = append(buf[:0], b...)
		r.err = call(buf)
		for i := range buf {
			buf[i] = 0xa5
		}
		return r.err == nil
	}
	if chunk == 0 {
		for _, rec := range readFrames(t, data) {
			if !feed(rec.Data, func(b []byte) error { return m.FeedPacket(rec.Timestamp, b) }) {
				return r
			}
		}
	} else {
		for off := 0; off < len(data); off += chunk {
			if !feed(data[off:min(off+chunk, len(data))], m.Feed) {
				return r
			}
		}
	}
	r.inf, r.err = m.Close()
	return r
}

// inference is a run's Close inference; a failed run fails the test.
func (r monitorRun) inference(t *testing.T) *Inference {
	t.Helper()
	if r.err != nil {
		t.Fatal(r.err)
	}
	return r.inf
}

// TestMonitorChunkEquivalence is the wrapper contract for the streaming
// redesign: for every session of the `wmdataset -n 6 -seed 5` fixture
// (the PR-2 regression dataset), InferPcap — now a thin wrapper over
// attack.Monitor — and a Monitor fed the same capture in 1-byte chunks,
// packet by packet, and as one whole chunk all produce the identical
// Inference, down to every classified record, hypothesis and margin.
func TestMonitorChunkEquivalence(t *testing.T) {
	ds, err := GenerateDataset(6, 5)
	if err != nil {
		t.Fatal(err)
	}
	atk, err := TrainAttacker(TrainingOptions{Condition: ConditionUbuntu, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ds.Points {
		// The same per-point seed wmdataset's WriteTo uses, so these are
		// byte-for-byte the published fixture captures.
		data, err := CapturePcap(p.Trace, uint64(p.Index))
		if err != nil {
			t.Fatal(err)
		}
		want, err := atk.InferPcap(data)
		if err != nil {
			t.Fatal(err)
		}
		if got := feedChunks(atk, data, len(data), nil, false).inference(t); !reflect.DeepEqual(got, want) {
			t.Errorf("session %03d: whole-capture feed diverged from InferPcap", p.Index+1)
		}
		if got := feedPackets(t, atk, data, nil, false).inference(t); !reflect.DeepEqual(got, want) {
			t.Errorf("session %03d: per-packet feed diverged from InferPcap", p.Index+1)
		}
		if got := feedChunks(atk, data, 1, nil, false).inference(t); !reflect.DeepEqual(got, want) {
			t.Errorf("session %03d: 1-byte feed diverged from InferPcap", p.Index+1)
		}
	}
}

// TestMonitorFeedPathEquivalence pins feed-path equivalence for events
// and both modes: on clean single-session captures and on interleaved
// multi-flow captures, in batch and rolling-window mode, a Monitor fed in
// 63 KiB chunks (not a packet boundary), as one whole Feed and frame by
// frame through FeedPacket emits the identical event stream and Close
// result.
func TestMonitorFeedPathEquivalence(t *testing.T) {
	ds, err := GenerateDataset(6, 5)
	if err != nil {
		t.Fatal(err)
	}
	atk, err := TrainAttacker(TrainingOptions{Condition: ConditionUbuntu, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}

	type capCase struct {
		name string
		data []byte
	}
	var cases []capCase
	for _, p := range ds.Points {
		data, err := CapturePcap(p.Trace, uint64(p.Index))
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, capCase{fmt.Sprintf("session%03d", p.Index+1), data})
	}
	for seed := uint64(1); seed <= 2; seed++ {
		tr, err := Simulate(SessionOptions{Seed: seed, Condition: ConditionUbuntu})
		if err != nil {
			t.Fatal(err)
		}
		multi, err := CapturePcapMulti(tr, seed, 4)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, capCase{fmt.Sprintf("interleaved%d", seed), multi})
	}

	windows := []struct {
		name string
		win  *MonitorWindow
	}{{"batch", nil}, {"window", &MonitorWindow{}}}
	for _, tc := range cases {
		for _, w := range windows {
			want := feedChunks(atk, tc.data, 63<<10, w.win, true)
			for _, feed := range []struct {
				name string
				run  monitorRun
			}{
				{"whole Feed", feedChunks(atk, tc.data, len(tc.data), w.win, true)},
				{"FeedPacket", feedPackets(t, atk, tc.data, w.win, true)},
			} {
				got := feed.run
				if (got.err == nil) != (want.err == nil) ||
					(got.err != nil && got.err.Error() != want.err.Error()) {
					t.Errorf("%s/%s %s: error %v, want %v", tc.name, w.name, feed.name, got.err, want.err)
					continue
				}
				if !reflect.DeepEqual(got.inf, want.inf) {
					t.Errorf("%s/%s %s: inference diverged from the chunked feed", tc.name, w.name, feed.name)
				}
				if len(got.events) != len(want.events) {
					t.Errorf("%s/%s %s: %d events, want %d", tc.name, w.name, feed.name, len(got.events), len(want.events))
					continue
				}
				for i := range want.events {
					if !reflect.DeepEqual(got.events[i], want.events[i]) {
						t.Errorf("%s/%s %s: event %d = %#v, want %#v",
							tc.name, w.name, feed.name, i, got.events[i], want.events[i])
						break
					}
				}
			}
		}
	}
}

// reorderSegments rewrites a capture so that every nth payload-carrying
// TCP segment of each direction trades places with the one before it in
// that direction, the frames' timestamps staying where they were, and
// returns it with the number of trades.
func reorderSegments(t *testing.T, data []byte, nth int) ([]byte, int) {
	t.Helper()
	recs := readFrames(t, data)
	frames := make([][]byte, len(recs))
	prev := map[layers.FlowKey]int{}
	seen := map[layers.FlowKey]int{}
	trades := 0
	for i, rec := range recs {
		frames[i] = rec.Data
		p, err := layers.DecodePacket(rec.Timestamp, rec.Data)
		if err != nil || p.Proto != layers.IPProtocolTCP || len(p.Payload) == 0 {
			continue
		}
		k := p.Flow()
		if seen[k]++; seen[k]%nth == 0 {
			frames[i], frames[prev[k]] = frames[prev[k]], frames[i]
			trades++
		}
		prev[k] = i
	}
	var buf bytes.Buffer
	w := pcapio.NewWriter(&buf)
	for i, rec := range recs {
		if err := w.WritePacket(rec.Timestamp, frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes(), trades
}

// TestMonitorFeedReusesCallerBuffers pins the promise both entry points
// make, that the caller may reuse its buffer as soon as the call
// returns, where the fuzzer does not reach: a whole interleaved capture
// whose reassembly must hold out-of-order bytes (every 40th segment of a
// direction arrives ahead of the one before it). Fed through one buffer
// overwritten after every call — in 64 KiB, 1,500-byte and 7-byte Feed
// chunks, and frame by frame through FeedPacket — in batch and window
// mode, the monitor must emit the events and Close result of one whole
// Feed of the same capture.
func TestMonitorFeedReusesCallerBuffers(t *testing.T) {
	tr, err := Simulate(SessionOptions{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	atk, err := TrainAttacker(TrainingOptions{Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := CapturePcapMulti(tr, 21, 2)
	if err != nil {
		t.Fatal(err)
	}
	data, trades := reorderSegments(t, multi, 40)
	if trades == 0 {
		t.Fatal("no segment was reordered")
	}
	for _, w := range []struct {
		name string
		win  *MonitorWindow
	}{{"batch", nil}, {"window", &MonitorWindow{}}} {
		want := feedChunks(atk, data, len(data), w.win, true)
		if want.err != nil || want.inf == nil || len(want.events) == 0 {
			t.Fatalf("%s: whole Feed: %v, %d events", w.name, want.err, len(want.events))
		}
		for _, feed := range []struct {
			name  string
			chunk int
		}{{"64 KiB Feed", 64 << 10}, {"1500-byte Feed", 1500}, {"7-byte Feed", 7}, {"FeedPacket", 0}} {
			got := feedReused(t, atk, data, feed.chunk, w.win)
			switch {
			case got.err != nil:
				t.Errorf("%s %s: %v", w.name, feed.name, got.err)
			case !reflect.DeepEqual(got.inf, want.inf):
				t.Errorf("%s %s: Close result diverged from the whole Feed", w.name, feed.name)
			case !reflect.DeepEqual(got.events, want.events):
				t.Errorf("%s %s: %d events diverged from the whole Feed's %d", w.name, feed.name, len(got.events), len(want.events))
			}
		}
	}
}

// TestInterleavedDetectionRegression pins the interleaved scenario: with
// the interactive session mixed among 4 concurrent bulk-streaming noise
// flows, the monitor must detect the interactive flow, finalize on it,
// and decode the same decisions it recovers from the clean single-flow
// capture.
func TestInterleavedDetectionRegression(t *testing.T) {
	atk, err := TrainAttacker(TrainingOptions{Condition: ConditionUbuntu, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		tr, err := Simulate(SessionOptions{Seed: seed, Condition: ConditionUbuntu})
		if err != nil {
			t.Fatal(err)
		}
		clean, err := CapturePcap(tr, seed)
		if err != nil {
			t.Fatal(err)
		}
		cleanInf, err := atk.InferPcap(clean)
		if err != nil {
			t.Fatal(err)
		}
		multi, err := CapturePcapMulti(tr, seed, 4)
		if err != nil {
			t.Fatal(err)
		}

		var detectedInteractive bool
		finals := map[*Inference]SessionFinalized{}
		m := NewMonitor(atk, MonitorOptions{OnEvent: func(ev MonitorEvent) {
			switch e := ev.(type) {
			case FlowDetected:
				if e.Flow.SrcPort == 51732 {
					detectedInteractive = true
				}
			case SessionFinalized:
				finals[e.Inference] = e
			}
		}})
		const chunk = 128 << 10
		for off := 0; off < len(multi); off += chunk {
			end := off + chunk
			if end > len(multi) {
				end = len(multi)
			}
			if err := m.Feed(multi[off:end]); err != nil {
				t.Fatal(err)
			}
		}
		inf, err := m.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !detectedInteractive {
			t.Errorf("seed %d: interactive flow never detected among noise", seed)
		}
		if finalized, ok := finals[inf]; !ok || finalized.Flow.SrcPort != 51732 {
			t.Fatalf("seed %d: attacked %v, want the interactive flow", seed, finalized.Flow)
		}
		if !reflect.DeepEqual(inf.Decisions, cleanInf.Decisions) {
			t.Errorf("seed %d: interleaved decode %v differs from clean decode %v",
				seed, inf.Decisions, cleanInf.Decisions)
		}
		// The one-shot wrapper (no event callback, so candidate flows are
		// classified lazily at Close) must find the interactive flow too.
		oneShot, err := atk.InferPcap(multi)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(oneShot.Decisions, cleanInf.Decisions) {
			t.Errorf("seed %d: one-shot interleaved decode %v differs from clean decode %v",
				seed, oneShot.Decisions, cleanInf.Decisions)
		}
	}
}

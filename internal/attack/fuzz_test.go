package attack

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/capture"
	"repro/internal/layers"
	"repro/internal/media"
	"repro/internal/pcapio"
	"repro/internal/profiles"
	"repro/internal/script"
	"repro/internal/session"
	"repro/internal/viewer"
	"repro/internal/wire"
)

// fuzzEpoch is the capture clock a fuzz input's first timestamp delta
// starts from.
var fuzzEpoch = time.Unix(1700000000, 0)

// fuzzTick is the unit of a fuzz record's timestamp delta.
const fuzzTick = 100 * time.Millisecond

// pcapHeaderBytes is the length of a pcap file header plus one record
// header.
const pcapHeaderBytes = 24 + 16

// fuzzFrame is one timestamped frame of a fuzz input.
type fuzzFrame struct {
	ts   time.Time
	data []byte
}

// decodeFuzzFrames splits a fuzz input into frames. Each record is a
// signed 1-byte timestamp delta in units of fuzzTick (so the capture
// clock can run backwards), a 2-byte big-endian frame length, then the
// frame bytes; a length past the end of the input takes what is left.
func decodeFuzzFrames(in []byte) []fuzzFrame {
	var out []fuzzFrame
	ts := fuzzEpoch
	for len(in) >= 3 {
		ts = ts.Add(time.Duration(int8(in[0])) * fuzzTick)
		n := min(int(binary.BigEndian.Uint16(in[1:3])), len(in)-3)
		out = append(out, fuzzFrame{ts, in[3 : 3+n]})
		in = in[3+n:]
	}
	return out
}

// encodeFuzzFrames is the inverse of decodeFuzzFrames for seeds: each
// delta is rounded to whole ticks and clamped to the signed byte range.
func encodeFuzzFrames(frames []fuzzFrame) []byte {
	var out []byte
	prev := fuzzEpoch
	for _, fr := range frames {
		d := max(-128, min(127, fr.ts.Sub(prev).Round(fuzzTick)/fuzzTick))
		prev = prev.Add(d * fuzzTick)
		out = append(out, byte(int8(d)))
		out = binary.BigEndian.AppendUint16(out, uint16(len(fr.data)))
		out = append(out, fr.data...)
	}
	return out
}

// fuzzOutcome is everything a monitor reports for one input: its event
// stream and its Close result.
type fuzzOutcome struct {
	events   []Event
	inf      *Inference
	closeErr string
}

// runFuzzMonitor feeds a fresh monitor through feed and closes it, and
// checks what callers of Close rely on: no flow is left open, the Stats
// counters match the SessionFinalized and FlowExpired events, and a
// successful Close returns the Inference of exactly one SessionFinalized.
func runFuzzMonitor(t *testing.T, atk *Attacker, win *Window, feed func(*Monitor) error) fuzzOutcome {
	t.Helper()
	var out fuzzOutcome
	m := NewMonitor(atk, MonitorOptions{
		Window:  win,
		OnEvent: func(ev Event) { out.events = append(out.events, ev) },
	})
	if err := feed(m); err != nil {
		t.Fatal(err)
	}
	inf, err := m.Close()
	out.inf = inf
	if err != nil {
		out.closeErr = err.Error()
	}
	var finalized, expired, carriers int
	for _, ev := range out.events {
		switch e := ev.(type) {
		case SessionFinalized:
			finalized++
			if e.Inference == inf {
				carriers++
			}
		case FlowExpired:
			expired++
		}
	}
	st := m.Stats()
	if st.Flows != 0 {
		t.Fatalf("%d flows still tracked after Close", st.Flows)
	}
	if st.FinalizedSessions != finalized || st.ExpiredFlows != expired {
		t.Fatalf("Stats counts %d finalized and %d expired, events %d and %d",
			st.FinalizedSessions, st.ExpiredFlows, finalized, expired)
	}
	if err == nil && carriers != 1 {
		t.Fatalf("%d SessionFinalized events carry the Inference Close returned, want 1", carriers)
	}
	return out
}

// feedFrames feeds frames one by one through FeedPacket, each copied
// into one reused buffer that is overwritten once the call returns: the
// monitor may keep no reference to a frame.
func feedFrames(frames []fuzzFrame) func(*Monitor) error {
	return func(m *Monitor) error {
		var buf []byte
		for _, fr := range frames {
			buf = append(buf[:0], fr.data...)
			if err := m.FeedPacket(fr.ts, buf); err != nil {
				return fmt.Errorf("FeedPacket: %w", err)
			}
			scribble(buf)
		}
		return nil
	}
}

// feedSplit feeds pcap bytes through Feed in two pieces, cut at off, each
// copied into one reused buffer that is overwritten once Feed returns.
func feedSplit(pcap []byte, off int) func(*Monitor) error {
	return func(m *Monitor) error {
		var buf []byte
		for _, part := range [][]byte{pcap[:off], pcap[off:]} {
			buf = append(buf[:0], part...)
			if err := m.Feed(buf); err != nil {
				return fmt.Errorf("Feed: %w", err)
			}
			scribble(buf)
		}
		return nil
	}
}

// scribble overwrites a buffer the monitor was fed and must not retain.
func scribble(buf []byte) {
	for i := range buf {
		buf[i] = 0xa5
	}
}

// fuzzPcap writes frames as pcap bytes. The file header is written even
// for no frames, so the bytes are always a valid capture.
func fuzzPcap(tb testing.TB, frames []fuzzFrame) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := pcapio.NewWriter(&buf)
	if err := w.WriteHeader(); err != nil {
		tb.Fatal(err)
	}
	for _, fr := range frames {
		if err := w.WritePacket(fr.ts, fr.data); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

// tinyCaptureFrames renders a TinyScript session with one noise flow and
// returns its frames with their capture timestamps.
func tinyCaptureFrames(tb testing.TB) []fuzzFrame {
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
	}); err != nil {
		tb.Fatal(err)
	}
	return pcapFrames(tb, buf.Bytes())
}

// pcapFrames returns a capture's frames with their timestamps.
func pcapFrames(tb testing.TB, data []byte) []fuzzFrame {
	tb.Helper()
	rd, err := pcapio.NewBytesReader(data)
	if err != nil {
		tb.Fatal(err)
	}
	recs, err := rd.ReadAll()
	if err != nil {
		tb.Fatal(err)
	}
	frames := make([]fuzzFrame, len(recs))
	for i, r := range recs {
		frames[i] = fuzzFrame{r.Timestamp, r.Data}
	}
	return frames
}

// handStep is one hand-built frame: a payload-less TCP header on key,
// at an offset from fuzzEpoch.
type handStep struct {
	at  time.Duration
	key layers.FlowKey
	tcp layers.TCP
}

// handFrames builds the frames of steps.
func handFrames(tb testing.TB, steps []handStep) []fuzzFrame {
	tb.Helper()
	frames := make([]fuzzFrame, len(steps))
	for i, st := range steps {
		frame, err := layers.BuildTCPFrame(st.key, layers.Ethernet{}, st.tcp, nil, uint16(i))
		if err != nil {
			tb.Fatal(err)
		}
		frames[i] = fuzzFrame{fuzzEpoch.Add(st.at), frame}
	}
	return frames
}

// FuzzMonitorFeedPacket drives the Monitor's frame entry point with
// arbitrary frame sequences, in batch mode and in a short rolling window.
// No input may panic it, feeding the same input twice must give the same
// events and Close result, and the same frames written as pcap bytes and
// fed through Feed in two pieces, cut at the offset split picks, must
// give them too. Every run must also keep Close's contract (see
// runFuzzMonitor). Every feed goes through a reused buffer that is
// overwritten after each call.
func FuzzMonitorFeedPacket(f *testing.F) {
	// Frames spread evenly over a real capture, one to a seed, each cut
	// inside the frame: small seeds keep each execution and each
	// minimization cheap (a whole capture overflows the fuzzer's shared
	// memory).
	frames := tinyCaptureFrames(f)
	for i := 0; i < len(frames); i += 1 + len(frames)/7 {
		f.Add(uint16(pcapHeaderBytes+len(frames[i].data)/2), encodeFuzzFrames(frames[i:i+1]))
	}
	// The hand-built open and reset of TestMonitorExpiryHandBuilt.
	x, y := handKey(40000), handKey(40001)
	hand := handFrames(f, []handStep{{0, x, handSyn}, {time.Second, x.Reverse(), handSynAck}, {2 * time.Second, x, handRst}})
	f.Add(uint16(pcapHeaderBytes+len(hand[0].data)+8), encodeFuzzFrames(hand)) // cut in the second record header
	// Orders that move the Monitor off the flow of the packet before: two
	// conversations alternating packet by packet; a 5-tuple reused in the
	// packet right after its RST, and right after both FINs; a flow the
	// window's idle sweep drops (the 3 s SYN sweeps on its clock jump)
	// whose 5-tuple returns in the next packet; a clock that runs
	// backwards.
	clientFin := layers.TCP{Seq: 2, Ack: 2, Flags: layers.TCPFin | layers.TCPAck}
	serverFin := layers.TCP{Seq: 2, Ack: 3, Flags: layers.TCPFin | layers.TCPAck}
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	for _, steps := range [][]handStep{
		{{0, x, handSyn}, {0, y, handSyn}, {ms(100), x.Reverse(), handSynAck}, {ms(100), y.Reverse(), handSynAck},
			{ms(200), x, handAck}, {ms(200), y, handAck}, {ms(300), x, handRst}, {ms(300), y, handRst}},
		{{0, x, handSyn}, {ms(100), x.Reverse(), handSynAck}, {ms(200), x, handRst}, {ms(300), x, handSyn}},
		{{0, x, handSyn}, {ms(100), x.Reverse(), handSynAck}, {ms(200), x, clientFin}, {ms(300), x.Reverse(), serverFin}, {ms(400), x, handSyn}},
		{{0, x, handSyn}, {ms(100), x.Reverse(), handSynAck}, {ms(3000), y, handSyn}, {ms(3000), x, handSyn}},
		{{ms(1000), x, handSyn}, {ms(900), x.Reverse(), handSynAck}, {0, y, handSyn}, {ms(500), x, handAck}, {ms(-200), y, handRst}},
	} {
		frames := handFrames(f, steps)
		f.Add(uint16(pcapHeaderBytes+len(frames[0].data)+len(frames[1].data)/2), encodeFuzzFrames(frames))
	}

	atk := trainedAttacker(f, profiles.Fig2Ubuntu, []uint64{101})
	// Inputs rarely hold sweepInterval frames, so the window's idle
	// timeout is short enough that any clock jump of 500 ms (5 of the
	// input's 100 ms ticks) sweeps.
	modes := []struct {
		name string
		win  *Window
	}{
		{"batch", nil},
		{"window", &Window{IdleTimeout: 2 * time.Second}},
	}
	f.Fuzz(func(t *testing.T, split uint16, in []byte) {
		frames := decodeFuzzFrames(in)
		pcap := fuzzPcap(t, frames)
		off := int(split) % (len(pcap) + 1)
		for _, mode := range modes {
			want := runFuzzMonitor(t, atk, mode.win, feedFrames(frames))
			if again := runFuzzMonitor(t, atk, mode.win, feedFrames(frames)); !reflect.DeepEqual(again, want) {
				t.Fatalf("%s: a second feed of the same input diverged:\n%+v\nwant\n%+v", mode.name, again, want)
			}
			if got := runFuzzMonitor(t, atk, mode.win, feedSplit(pcap, off)); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: pcap bytes fed in two pieces cut at %d diverged from FeedPacket:\n%+v\nwant\n%+v", mode.name, off, got, want)
			}
		}
	})
}

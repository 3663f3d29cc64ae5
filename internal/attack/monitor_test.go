package attack

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/netip"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/capture"
	"repro/internal/layers"
	"repro/internal/pcapio"
	"repro/internal/profiles"
	"repro/internal/session"
	"repro/internal/tlsrec"
	"repro/internal/wire"
)

// capturedSession renders one session to pcap bytes.
func capturedSession(t *testing.T, tr *session.Trace, seed uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := capture.WritePcap(&buf, tr, capture.Options{Seed: seed}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// feedMonitor drives a monitor with fixed-size chunks and closes it.
func feedMonitor(t *testing.T, m *Monitor, data []byte, chunk int) *Inference {
	t.Helper()
	for off := 0; off < len(data); off += chunk {
		end := off + chunk
		if end > len(data) {
			end = len(data)
		}
		if err := m.Feed(data[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	inf, err := m.Close()
	if err != nil {
		t.Fatal(err)
	}
	return inf
}

// TestMonitorMatchesInferPcap pins the wrapper contract inside the
// package: a monitor fed in arbitrary chunks returns the exact Inference
// the one-shot path produces (the root-level equivalence test extends
// this to whole datasets and 1-byte feeds).
func TestMonitorMatchesInferPcap(t *testing.T) {
	cond := profiles.Fig2Ubuntu
	atk := trainedAttacker(t, cond, []uint64{101, 102, 103})
	tr := runSession(t, 555, cond)
	data := capturedSession(t, tr, 7)

	want, err := atk.InferPcap(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{997, 64 << 10, len(data)} {
		got := feedMonitor(t, NewMonitor(atk, MonitorOptions{}), data, chunk)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("chunk %d: monitor inference differs from InferPcap", chunk)
		}
	}
}

// TestMonitorFeedPacket drives the per-packet entry point and requires
// the same result as the byte-chunk path.
func TestMonitorFeedPacket(t *testing.T) {
	cond := profiles.Fig2Ubuntu
	atk := trainedAttacker(t, cond, []uint64{101, 102, 103})
	tr := runSession(t, 556, cond)
	data := capturedSession(t, tr, 9)

	want, err := atk.InferPcap(data)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := pcapio.NewBytesReader(data)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(atk, MonitorOptions{})
	for {
		rec, err := pr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := m.FeedPacket(rec.Timestamp, rec.Data); err != nil {
			t.Fatal(err)
		}
	}
	got, err := m.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("FeedPacket inference differs from InferPcap")
	}
}

// TestMonitorEvents checks the live event stream: one FlowDetected, a
// ChoiceInferred per in-band report, and a SessionFinalized carrying the
// same inference Close returns.
func TestMonitorEvents(t *testing.T) {
	cond := profiles.Fig2Ubuntu
	atk := trainedAttacker(t, cond, []uint64{101, 102, 103})
	tr := runSession(t, 557, cond)
	data := capturedSession(t, tr, 11)

	var detected []FlowDetected
	var choices []ChoiceInferred
	var finals []SessionFinalized
	m := NewMonitor(atk, MonitorOptions{OnEvent: func(ev Event) {
		switch e := ev.(type) {
		case FlowDetected:
			detected = append(detected, e)
		case ChoiceInferred:
			choices = append(choices, e)
		case SessionFinalized:
			finals = append(finals, e)
		}
	}})
	inf := feedMonitor(t, m, data, 32<<10)

	if len(detected) != 1 {
		t.Fatalf("FlowDetected fired %d times, want 1", len(detected))
	}
	if detected[0].Flow.DstPort != 443 {
		t.Errorf("detected flow %v is not client->server", detected[0].Flow)
	}
	hard := 0
	for _, c := range inf.Classified {
		if c.Class != ClassOther {
			hard++
		}
	}
	if len(choices) != hard {
		t.Errorf("ChoiceInferred fired %d times, want one per in-band report (%d)", len(choices), hard)
	}
	for i := 1; i < len(choices); i++ {
		if choices[i].At.Before(choices[i-1].At) {
			t.Error("ChoiceInferred events out of capture order")
		}
	}
	if len(finals) != 1 {
		t.Fatalf("SessionFinalized fired %d times, want 1", len(finals))
	}
	if !reflect.DeepEqual(finals[0].Inference, inf) {
		t.Error("SessionFinalized inference differs from Close result")
	}
	// The live engine's final running decisions should agree with the
	// final inference for a clean wired capture.
	if len(choices) > 0 {
		last := choices[len(choices)-1]
		if len(last.Decisions) > 0 && !reflect.DeepEqual(last.Decisions, inf.Decisions) {
			t.Errorf("running decisions %v, final %v", last.Decisions, inf.Decisions)
		}
	}
}

// TestPrefixAlignerMatchesBatchScore proves the incremental cell
// recurrence reproduces the batch aligner bit for bit: after absorbing
// every observation, each walk's deepest live cell equals the raw
// Needleman–Wunsch score Decode's aligner computes for the walk, and
// both equal the per-walk oracle's. After every observation the live
// aligner also agrees with the per-walk live oracle, ranking included.
func TestPrefixAlignerMatchesBatchScore(t *testing.T) {
	cond := profiles.Fig2Ubuntu
	atk := trainedAttacker(t, cond, []uint64{101, 102, 103})
	tr := runSession(t, 558, cond)
	obs := observationFromTrace(t, tr)
	classified := ClassifyRecords(obs.ClientRecords, atk.Classifier)
	table, err := PathTableFor(atk.Graph, atk.MaxChoices)
	if err != nil {
		t.Fatal(err)
	}
	var anchor time.Time
	if len(obs.ClientRecords) > 0 {
		anchor = obs.ClientRecords[0].Time
	}
	events := observedEvents(classified, anchor)
	if len(events) == 0 {
		t.Fatal("no observations in session")
	}

	pa := newPrefixAligner(table)
	oracle := newOraclePrefixAligner(table)
	for i, ev := range events {
		pa.observe(ev)
		oracle.observe(ev)
		if err := alignersAgree(pa, oracle); err != nil {
			t.Fatalf("after observation %d: %v", i, err)
		}
	}
	maxM := 0
	for i := range table.Paths {
		maxM = max(maxM, len(table.Paths[i].Events))
	}
	batch := newAligner(maxM, events)
	live := liveFinalCells(pa)
	for pi := range table.Paths {
		expected := table.Paths[pi].Events
		raw := batch.extend(expected, table.shared[pi], events)
		want := oracleScore(expected, events)
		if math.Float64bits(raw) != math.Float64bits(want) {
			t.Fatalf("walk %d: batch %v != oracle %v", pi, raw, want)
		}
		if math.Float64bits(live[pi]) != math.Float64bits(raw) {
			t.Fatalf("walk %d: incremental %v != batch %v", pi, live[pi], raw)
		}
	}
}

// feedMonitorPackets drives a monitor packet by packet without closing,
// returning the records fed.
func feedMonitorPackets(t *testing.T, m *Monitor, data []byte, frac float64) int {
	t.Helper()
	pr, err := pcapio.NewBytesReader(data)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := pr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	n := int(float64(len(recs)) * frac)
	for _, rec := range recs[:n] {
		if err := m.FeedPacket(rec.Timestamp, rec.Data); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// TestMonitorWindowFinFinalizes pins the rolling-window FIN path: the
// session finalizes the moment its FIN exchange is delivered — before
// Close — with the very inference the one-shot batch path produces, and
// the monitor's flow table is empty afterwards.
func TestMonitorWindowFinFinalizes(t *testing.T) {
	cond := profiles.Fig2Ubuntu
	atk := trainedAttacker(t, cond, []uint64{101, 102, 103})
	tr := runSession(t, 561, cond)
	data := capturedSession(t, tr, 13)
	want, err := atk.InferPcap(data)
	if err != nil {
		t.Fatal(err)
	}

	var finals []SessionFinalized
	var closed bool
	var finalizedBeforeClose bool
	m := NewMonitor(atk, MonitorOptions{
		Window: &Window{},
		OnEvent: func(ev Event) {
			if f, ok := ev.(SessionFinalized); ok {
				finals = append(finals, f)
				finalizedBeforeClose = finalizedBeforeClose || !closed
			}
		},
	})
	feedMonitorPackets(t, m, data, 1.0)
	if len(finals) != 1 {
		t.Fatalf("SessionFinalized fired %d times during the feed, want 1 (on FIN)", len(finals))
	}
	if !finalizedBeforeClose {
		t.Error("finalization waited for Close; the FIN should have triggered it")
	}
	if st := m.Stats(); st.Flows != 0 || st.RetainedBytes != 0 {
		t.Errorf("flow state retained after FIN finalization: %+v", st)
	}
	closed = true
	got, err := m.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("windowed inference differs from batch InferPcap")
	}
	if !reflect.DeepEqual(finals[0].Inference, want) {
		t.Error("SessionFinalized inference differs from batch InferPcap")
	}
}

// TestMonitorWindowRstFinalizes: a reset mid-session finalizes the flow
// immediately with the partial path decoded so far.
func TestMonitorWindowRstFinalizes(t *testing.T) {
	cond := profiles.Fig2Ubuntu
	atk := trainedAttacker(t, cond, []uint64{101, 102, 103})
	tr := runSession(t, 562, cond)
	data := capturedSession(t, tr, 17)
	full, err := atk.InferPcap(data)
	if err != nil {
		t.Fatal(err)
	}

	var finals []SessionFinalized
	m := NewMonitor(atk, MonitorOptions{
		Window: &Window{},
		OnEvent: func(ev Event) {
			if f, ok := ev.(SessionFinalized); ok {
				finals = append(finals, f)
			}
		},
	})
	feedMonitorPackets(t, m, data, 0.6)
	if len(finals) != 0 {
		t.Fatal("finalized before any close signal")
	}

	// The eavesdropper sees the connection reset mid-film.
	ep := capture.DefaultEndpoints()
	key := layers.FlowKey{SrcAddr: ep.ClientAddr, DstAddr: ep.ServerAddr,
		SrcPort: ep.ClientPort, DstPort: ep.ServerPort}
	rst, err := layers.BuildTCPFrame(key, layers.Ethernet{}, layers.TCP{Seq: 1, Flags: layers.TCPRst}, nil, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.FeedPacket(tr.Result.EndedAt, rst); err != nil {
		t.Fatal(err)
	}
	if len(finals) != 1 {
		t.Fatalf("SessionFinalized fired %d times after RST, want 1", len(finals))
	}
	inf := finals[0].Inference
	if len(inf.Classified) == 0 || len(inf.Classified) >= len(full.Classified) {
		t.Errorf("RST inference classified %d records, want a proper partial of %d",
			len(inf.Classified), len(full.Classified))
	}
	if len(inf.Decisions) == 0 {
		t.Error("partial-path inference carries no decisions")
	}
}

// TestMonitorWindowIdleExpiry is the mid-session flow-expiry contract:
// a session that goes silent finalizes via the idle sweep, emitting a
// partial-path SessionFinalized whose inference carries the decode margin
// over the confirmed prefix.
func TestMonitorWindowIdleExpiry(t *testing.T) {
	cond := profiles.Fig2Ubuntu
	atk := trainedAttacker(t, cond, []uint64{101, 102, 103})
	tr := runSession(t, 563, cond)
	data := capturedSession(t, tr, 19)
	full, err := atk.InferPcap(data)
	if err != nil {
		t.Fatal(err)
	}

	var finals []SessionFinalized
	var expired []FlowExpired
	m := NewMonitor(atk, MonitorOptions{
		Window: &Window{IdleTimeout: 60 * time.Second},
		OnEvent: func(ev Event) {
			switch e := ev.(type) {
			case SessionFinalized:
				finals = append(finals, e)
			case FlowExpired:
				expired = append(expired, e)
			}
		},
	})
	feedMonitorPackets(t, m, data, 0.6)

	// Ten minutes later an unrelated connection sends one packet; the
	// sweep must age the silent session out.
	other := layers.FlowKey{
		SrcAddr: netip.MustParseAddr("192.168.1.50"),
		DstAddr: netip.MustParseAddr("198.51.100.99"),
		SrcPort: 40000, DstPort: 443,
	}
	frame, err := layers.BuildTCPFrame(other, layers.Ethernet{}, layers.TCP{Seq: 1, Flags: layers.TCPSyn}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.FeedPacket(tr.Result.EndedAt.Add(10*time.Minute), frame); err != nil {
		t.Fatal(err)
	}
	if len(finals) != 1 {
		t.Fatalf("SessionFinalized fired %d times after idle, want 1", len(finals))
	}
	inf := finals[0].Inference
	if len(inf.Classified) == 0 || len(inf.Classified) >= len(full.Classified) {
		t.Errorf("idle inference classified %d records, want a proper partial of %d",
			len(inf.Classified), len(full.Classified))
	}
	if len(inf.Hypotheses) == 0 {
		t.Error("partial-path inference carries no hypotheses")
	}
	if inf.DecodeMargin < 0 {
		t.Errorf("confirmed-prefix DecodeMargin = %v", inf.DecodeMargin)
	}
	// The partial decode must agree with the full decode on the prefix of
	// choices whose evidence it saw.
	n := len(inf.Decisions)
	if n > len(full.Decisions) {
		n = len(full.Decisions)
	}
	agree := 0
	for i := 0; i < n; i++ {
		if inf.Decisions[i] == full.Decisions[i] {
			agree++
		}
	}
	if n > 0 && agree*2 < n {
		t.Errorf("partial decode agrees on %d/%d prefix choices", agree, n)
	}
}

// reportlessFrames builds a TLS 1.2 conversation by hand that never
// sends an in-band report: the client on port opens to 443 with SYN and
// SYN-ACK, each side sends one handshake record, then the client sends n
// application records of 300 bytes, one to a segment, the first at start
// and each spacing after the one before. A bare client ACK lands 1 ms
// before each record, so the rejection rules are also checked just short
// of every record's time. The handshake runs in the 100 ms before start.
// Frame 5+2i carries application record i+1.
func reportlessFrames(tb testing.TB, port uint16, start time.Time, spacing time.Duration, n int) []fuzzFrame {
	tb.Helper()
	key := handKey(port)
	record := func(typ tlsrec.ContentType, size int) []byte {
		w := wire.NewWriter(5 + size)
		tlsrec.AppendRecord(w, typ, tlsrec.VersionTLS12, make([]byte, size))
		return w.Bytes()
	}
	hello, app := record(tlsrec.ContentHandshake, 100), record(tlsrec.ContentApplicationData, 300)
	var frames []fuzzFrame
	add := func(at time.Time, k layers.FlowKey, tcp layers.TCP, payload []byte) {
		frame, err := layers.BuildTCPFrame(k, layers.Ethernet{}, tcp, payload, uint16(len(frames)))
		if err != nil {
			tb.Fatal(err)
		}
		frames = append(frames, fuzzFrame{at, frame})
	}
	hs := start.Add(-100 * time.Millisecond)
	cSeq, sSeq := uint32(2), uint32(2)
	add(hs, key, handSyn, nil)
	add(hs.Add(10*time.Millisecond), key.Reverse(), handSynAck, nil)
	add(hs.Add(20*time.Millisecond), key, layers.TCP{Seq: cSeq, Ack: sSeq, Flags: layers.TCPPsh | layers.TCPAck}, hello)
	cSeq += uint32(len(hello))
	add(hs.Add(30*time.Millisecond), key.Reverse(), layers.TCP{Seq: sSeq, Ack: cSeq, Flags: layers.TCPPsh | layers.TCPAck}, hello)
	sSeq += uint32(len(hello))
	for i := range n {
		at := start.Add(time.Duration(i) * spacing)
		add(at.Add(-time.Millisecond), key, layers.TCP{Seq: cSeq, Ack: sSeq, Flags: layers.TCPAck}, nil)
		add(at, key, layers.TCP{Seq: cSeq, Ack: sSeq, Flags: layers.TCPPsh | layers.TCPAck}, app)
		cSeq += uint32(len(app))
	}
	return frames
}

// mergeFrames merges extra frames into frames by timestamp, frames first
// on ties.
func mergeFrames(frames []fuzzFrame, extra ...[]fuzzFrame) []fuzzFrame {
	for _, e := range extra {
		frames = append(frames, e...)
	}
	slices.SortStableFunc(frames, func(a, b fuzzFrame) int { return a.ts.Compare(b.ts) })
	return frames
}

// TestMonitorWindowRejectionThresholds pins the noise-rejection
// thresholds a deployed Monitor runs at, on hand-built reportless flows
// fed frame by frame into a Window{} monitor:
//
//   - dense, 100 ms apart: the count rule rejects on record 128
//     (rejectAfterRecords), and recheckBudget re-checks recheckEvery
//     records apart evict the flow with 384 records, 38.3 s after its
//     first;
//   - drip, 10 s apart: the clock rule rejects on record 16, rejectQuiet
//     (150 s) after the first and not on the ACK 1 ms before, and
//     re-checks rejectQuiet apart evict it with 76 records at 12m30s,
//     every count below rejectAfterRecords;
//   - near-silent, 20 s apart: 11 records over 200 s are never rejected
//     (rejectQuietMinRecords), and the 12th rejects.
func TestMonitorWindowRejectionThresholds(t *testing.T) {
	atk := &Attacker{Classifier: otherOnlyClassifier{}}
	start := time.Unix(1700000000, 0)
	cases := []struct {
		name     string
		spacing  time.Duration
		records  int
		rejectOn int           // the application record that rejects the flow
		evicted  int           // Records of its "rejected" FlowExpired; 0: none
		evictAt  time.Duration // that event's At, after the first record
	}{
		{"dense", 100 * time.Millisecond, 400, 128, 384, 38300 * time.Millisecond},
		{"drip", 10 * time.Second, 80, 16, 76, 12*time.Minute + 30*time.Second},
		{"near-silent", 20 * time.Second, 12, 12, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var evictions []FlowExpired
			m := NewMonitor(atk, MonitorOptions{Window: &Window{}, OnEvent: func(ev Event) {
				if e, ok := ev.(FlowExpired); ok && e.Reason == "rejected" {
					evictions = append(evictions, e)
				}
			}})
			for i, fr := range reportlessFrames(t, 45000, start, tc.spacing, tc.records) {
				if err := m.FeedPacket(fr.ts, fr.data); err != nil {
					t.Fatal(err)
				}
				// Frames 4+2k and 5+2k are record k+1's ACK and the record.
				rec := (i - 3) / 2
				want := 0
				if i >= 5+2*(tc.rejectOn-1) && (tc.evicted == 0 || rec < tc.evicted) {
					want = 1
				}
				if got := m.Stats().RejectedFlows; got != want {
					t.Fatalf("frame %d (record %d at %v): RejectedFlows %d, want %d",
						i, rec, fr.ts.Sub(start), got, want)
				}
			}
			switch {
			case tc.evicted == 0 && len(evictions) != 0:
				t.Errorf("evicted as rejected: %+v", evictions)
			case tc.evicted != 0 && len(evictions) != 1:
				t.Errorf("%d rejected evictions, want 1", len(evictions))
			case tc.evicted != 0:
				if e := evictions[0]; e.Records != tc.evicted || e.At.Sub(start) != tc.evictAt {
					t.Errorf("evicted with Records %d at %v, want %d at %v",
						e.Records, e.At.Sub(start), tc.evicted, tc.evictAt)
				}
			}
		})
	}
}

// TestMonitorWindowRejectsNoiseFlows is the eviction regression from the
// rolling-window work: noise flows the monitor has rejected must stop
// accumulating state. 16 concurrent bulk-streaming flows ride along one
// interactive session, and four hand-built dense reportless flows join
// them at intervals across it; with a window configured, each dense flow
// must be rejected and terminally evicted after the bounded re-check, the
// monitor's retained memory must stay far below the stream volume, and
// the interactive session must still be found and decoded.
func TestMonitorWindowRejectsNoiseFlows(t *testing.T) {
	cond := profiles.Fig2Ubuntu
	atk := trainedAttacker(t, cond, []uint64{101, 102, 103})
	tr := runSession(t, 564, cond)
	var buf bytes.Buffer
	if err := capture.WritePcapMulti(&buf, tr, capture.MultiOptions{
		Options:    capture.Options{Seed: 23},
		NoiseFlows: 16,
	}); err != nil {
		t.Fatal(err)
	}
	frames := pcapFrames(t, buf.Bytes())
	dense := map[uint16]bool{}
	var extra [][]fuzzFrame
	for i := range 4 {
		port := uint16(45000 + i)
		dense[port] = true
		at := frames[0].ts.Add(time.Duration(30+90*i) * time.Second)
		extra = append(extra, reportlessFrames(t, port, at, 100*time.Millisecond, 400))
	}
	data := fuzzPcap(t, mergeFrames(frames, extra...))

	var finals []SessionFinalized
	evicted := map[uint16]int{} // dense port -> Records at its rejected eviction
	m := NewMonitor(atk, MonitorOptions{Window: &Window{IdleTimeout: 120 * time.Second}, OnEvent: func(ev Event) {
		switch e := ev.(type) {
		case SessionFinalized:
			finals = append(finals, e)
		case FlowExpired:
			if e.Reason == "rejected" && dense[e.Flow.SrcPort] {
				evicted[e.Flow.SrcPort] = e.Records
			}
		}
	}})
	var peak int64
	const chunk = 256 << 10
	for off := 0; off < len(data); off += chunk {
		end := off + chunk
		if end > len(data) {
			end = len(data)
		}
		if err := m.Feed(data[off:end]); err != nil {
			t.Fatal(err)
		}
		if st := m.Stats(); st.RetainedBytes > peak {
			peak = st.RetainedBytes
		}
	}
	inf, err := m.Close()
	if err != nil {
		t.Fatal(err)
	}

	// The interactive flow finalized as the session and decoded fully.
	ep := capture.DefaultEndpoints()
	found := false
	for _, f := range finals {
		if f.Flow.SrcAddr == ep.ClientAddr && f.Flow.SrcPort == ep.ClientPort {
			found = true
		}
	}
	if !found {
		t.Errorf("interactive flow never finalized as a session (finals: %d)", len(finals))
	}
	correct, total := ScoreDecisions(inf.Decisions, tr.GroundTruthDecisions())
	if correct != total {
		t.Errorf("decode with 16 noise flows: %d/%d choices", correct, total)
	}

	// Eviction really happened, and really bounded memory: the capture
	// carries 17 flows of media-scale traffic, the monitor must retain a
	// small fraction of it at any instant.
	for port := range dense {
		if evicted[port] != rejectAfterRecords+recheckBudget*recheckEvery {
			t.Errorf("dense flow :%d: rejected eviction at %d records, want %d", port, evicted[port],
				rejectAfterRecords+recheckBudget*recheckEvery)
		}
	}
	if peak > int64(len(data))/8 {
		t.Errorf("peak retained %d bytes on a %d-byte capture; window is not releasing", peak, len(data))
	}
	t.Logf("capture %d bytes, peak retained %d, dense evictions %v", len(data), peak, evicted)
}

// TestMonitorWindowRejectsSlowDripNoise pins the rate-based rejection
// rule inside a real interleaved capture: a reportless flow that drips
// records too slowly to ever reach the count threshold must still be
// rejected — and terminally evicted — once it has been quiet for
// rejectQuiet of capture clock, because a deployed tap reasons in
// reports per minute, not in record counts. A hand-built drip of one
// record every 10 s rides along a session and six bulk-streaming noise
// flows, and the session must come through unharmed.
func TestMonitorWindowRejectsSlowDripNoise(t *testing.T) {
	cond := profiles.Fig2Ubuntu
	atk := trainedAttacker(t, cond, []uint64{101, 102, 103})
	tr := runSession(t, 564, cond) // long session: plenty of capture clock
	var buf bytes.Buffer
	if err := capture.WritePcapMulti(&buf, tr, capture.MultiOptions{
		Options:    capture.Options{Seed: 41},
		NoiseFlows: 6,
	}); err != nil {
		t.Fatal(err)
	}
	const dripPort = 45100
	frames := pcapFrames(t, buf.Bytes())
	drip := reportlessFrames(t, dripPort, frames[0].ts.Add(10*time.Second), 10*time.Second, 80)
	data := fuzzPcap(t, mergeFrames(frames, drip))

	var finals []SessionFinalized
	var rejected []FlowExpired
	m := NewMonitor(atk, MonitorOptions{Window: &Window{}, OnEvent: func(ev Event) {
		switch e := ev.(type) {
		case SessionFinalized:
			finals = append(finals, e)
		case FlowExpired:
			if e.Reason == "rejected" {
				rejected = append(rejected, e)
			}
		}
	}})
	inf := feedMonitor(t, m, data, 256<<10)

	dripEvicted := false
	for _, e := range rejected {
		if e.Flow.SrcPort != dripPort {
			continue
		}
		dripEvicted = true
		if e.Records >= rejectAfterRecords {
			t.Errorf("drip flow evicted with %d records — the count rule fired, not the clock rule", e.Records)
		}
	}
	if !dripEvicted {
		t.Fatal("the slow-drip flow was not evicted by the quiet-period rule")
	}
	// The interactive session is unharmed: its first report lands well
	// inside the quiet window, so it finalizes and decodes fully.
	ep := capture.DefaultEndpoints()
	found := false
	for _, f := range finals {
		if f.Flow.SrcAddr == ep.ClientAddr && f.Flow.SrcPort == ep.ClientPort {
			found = true
		}
	}
	if !found {
		t.Error("interactive flow never finalized as a session")
	}
	correct, total := ScoreDecisions(inf.Decisions, tr.GroundTruthDecisions())
	if correct != total {
		t.Errorf("decode under quiet-period rejection: %d/%d choices", correct, total)
	}
	t.Logf("%d flows evicted as rejected (records per flow: %v)", len(rejected), recordCounts(rejected))
}

// recordCounts extracts the per-flow classified-record counts of expiry
// events for the test log.
func recordCounts(evs []FlowExpired) []int {
	out := make([]int, len(evs))
	for i, e := range evs {
		out[i] = e.Records
	}
	return out
}

// otherOnlyClassifier never places a record in a report band — the view
// an attacker trained under the wrong condition has of a capture.
type otherOnlyClassifier struct{}

func (otherOnlyClassifier) Classify(int) (Class, float64) { return ClassOther, 0 }

func (otherOnlyClassifier) Name() string { return "other-only" }

// TestMonitorWindowFallbackWithoutReports pins the batch fallback in
// rolling-window mode: when no flow ever classifies an in-band report
// (wrong training condition, defended traffic), Close must still attack
// the capture's largest conversation — byte-identical to InferPcap —
// rather than expiring everything and erroring. The capture is cut at
// 140 s of capture clock, short of rejectQuiet and of rejectAfterRecords
// client records, so the flow reaches Close with its full observation;
// the companion test below covers the rejected case.
func TestMonitorWindowFallbackWithoutReports(t *testing.T) {
	cond := profiles.Fig2Ubuntu
	atk := trainedAttacker(t, cond, []uint64{101, 102, 103})
	blind := *atk
	blind.Classifier = otherOnlyClassifier{}
	tr := runSession(t, 565, cond)
	frames := pcapFrames(t, capturedSession(t, tr, 29))
	end := frames[0].ts.Add(140 * time.Second)
	cut := slices.IndexFunc(frames, func(fr fuzzFrame) bool { return !fr.ts.Before(end) })
	if cut < 0 {
		t.Fatal("session shorter than the cut")
	}
	data := fuzzPcap(t, frames[:cut])

	want, err := blind.InferPcap(data)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(&blind, MonitorOptions{Window: &Window{}})
	for off := 0; off < len(data); off += 128 << 10 {
		if err := m.Feed(data[off:min(off+128<<10, len(data))]); err != nil {
			t.Fatal(err)
		}
	}
	if st := m.Stats(); st.RejectedFlows != 0 || st.ExpiredFlows != 0 {
		t.Fatalf("cut capture tripped rejection: %+v", st)
	}
	got, err := m.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("windowed fallback inference differs from batch InferPcap")
	}
}

// TestMonitorWindowFallbackSurvivesRejection extends the zero-report
// fallback to the long-flow case: a reportless conversation that crosses
// the rejection threshold — its records past rejection are released —
// must still yield a largest-conversation inference at Close (decoded
// over the pre-rejection prefix), never an error. The flow's re-checks
// run past the session's end, so it is not evicted;
// TestMonitorWindowRejectionThresholds covers eviction.
func TestMonitorWindowFallbackSurvivesRejection(t *testing.T) {
	cond := profiles.Fig2Ubuntu
	atk := trainedAttacker(t, cond, []uint64{101, 102, 103})
	blind := *atk
	blind.Classifier = otherOnlyClassifier{}
	tr := runSession(t, 556, cond) // 140 app records over ~7 min: the clock rule rejects it
	data := capturedSession(t, tr, 31)

	m := NewMonitor(&blind, MonitorOptions{Window: &Window{}})
	inf := feedMonitor(t, m, data, 128<<10)
	if inf == nil {
		t.Fatal("no inference")
	}
	if len(inf.Classified) == 0 {
		t.Error("fallback inference classified nothing")
	}
	if len(inf.Classified) >= 140 {
		t.Errorf("fallback classified %d records; expected the pre-rejection prefix only", len(inf.Classified))
	}
}

// TestMonitorFeedPacketOwnedReleasesOnError: a capture loop feeding a
// closed monitor must get an error for every frame and leave nothing
// behind — no bytes retained, no flow tracked — or the monitor grows one
// frame per packet after it stopped working.
func TestMonitorFeedPacketOwnedReleasesOnError(t *testing.T) {
	cond := profiles.Fig2Ubuntu
	atk := trainedAttacker(t, cond, []uint64{101, 102, 103})
	m := NewMonitor(atk, MonitorOptions{Window: &Window{}})
	if _, err := m.Close(); err == nil {
		t.Fatal("Close on an empty packet-fed monitor should report no conversation")
	}
	for i := 0; i < 10; i++ {
		if err := m.FeedPacket(time.Unix(int64(i), 0), make([]byte, 1200)); err == nil {
			t.Fatal("feed after Close should error")
		}
	}
	if st := m.Stats(); st.RetainedBytes != 0 || st.Flows != 0 {
		t.Fatalf("closed monitor retains %d bytes over %d flows after error-path feeds", st.RetainedBytes, st.Flows)
	}
}

// gapOrderingEvents builds the crafted gap capture and returns the event
// stream: a real session fed partway (flow A, with in-band evidence), a
// second two-direction flow B opened alongside it, then — after a
// ten-minute silence — B aborts with an RST whose timestamp jump
// triggers the idle sweep.
func gapOrderingEvents(t *testing.T, atk *Attacker, data []byte) []Event {
	t.Helper()
	var events []Event
	m := NewMonitor(atk, MonitorOptions{
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
// post-packet sweep emitted them in the opposite order.
func TestMonitorSweepOrderingOnClockJump(t *testing.T) {
	cond := profiles.Fig2Ubuntu
	atk := trainedAttacker(t, cond, []uint64{101, 102, 103})
	tr := runSession(t, 555, cond)
	data := capturedSession(t, tr, 7)

	want := gapOrderingEvents(t, atk, data)

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
// O(expired + re-armed) work — not O(flows) per sweep.
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

// TestMonitorExpiryHandBuilt replays hand-built SYN/ACK/RST sequences
// through FeedPacket and requires the expected expiry events and
// ErrNoTLSConversation from Close.
//
//   - wheel epoch: Y is first seen half a second after X. The wheel ticks
//     on the grid anchored at the first decoded packet, so Y idles out on
//     the sweep one second after X's, the sweep the packet count brings.
//   - port reuse: X resets and its 5-tuple opens a new conversation after
//     Y was first seen; at Close the still-open flows expire in first-seen
//     order, Y before the new X.
//   - batch port reuse: the same packets with no window. Nothing
//     finalizes before Close, so X is one conversation first seen before
//     Y, and both expire at Close in that order. X's handshake carried no
//     bytes, so it is no conversation to attack.
func TestMonitorExpiryHandBuilt(t *testing.T) {
	atk := trainedAttacker(t, profiles.Fig2Ubuntu, []uint64{101})
	x, y, z := handKey(40000), handKey(40001), handKey(50000)
	names := map[layers.FlowKey]string{x: "X", y: "Y", z: "Z"}

	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	// The 64.2 s SYN sweeps on its clock jump; the 65.2 s ack is the
	// 256th packet after it, so it sweeps on the count. The 255 acks
	// before it are spelled out, not derived from sweepInterval, so the
	// case also pins the deployed cadence.
	epoch := []handStep{{0, x, handSyn}, {ms(500), y, handSyn}, {ms(64200), z, handSyn}}
	for range 255 {
		epoch = append(epoch, handStep{ms(64700), z, handAck})
	}
	epoch = append(epoch, handStep{ms(65200), z, handAck})
	reuse := []handStep{{0, x, handSyn}, {0, x.Reverse(), handSynAck}, {ms(1000), y, handSyn}, {ms(2000), x, handRst}, {ms(3000), x, handSyn}}
	cases := []struct {
		name  string
		win   *Window
		steps []handStep
		want  []string // FlowExpired events: reason, flow, capture offset
	}{
		{
			name:  "wheel epoch",
			win:   &Window{IdleTimeout: 64 * time.Second},
			steps: epoch,
			want:  []string{"idle X 1m4.2s", "idle Y 1m5.2s", "close Z 1m5.2s"},
		},
		{
			name:  "port reuse",
			win:   &Window{},
			steps: reuse,
			want:  []string{"rst X 2s", "close Y 3s", "close X 3s"},
		},
		{
			name:  "batch port reuse",
			steps: reuse,
			want:  []string{"close X 3s", "close Y 3s"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got []string
			m := NewMonitor(atk, MonitorOptions{
				Window: tc.win,
				OnEvent: func(ev Event) {
					e, ok := ev.(FlowExpired)
					if !ok {
						t.Fatalf("unexpected %T", ev)
					}
					got = append(got, fmt.Sprintf("%s %s %v", e.Reason, names[e.Flow], e.At.Sub(fuzzEpoch)))
				},
			})
			for _, fr := range handFrames(t, tc.steps) {
				if err := m.FeedPacket(fr.ts, fr.data); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := m.Close(); err != ErrNoTLSConversation {
				t.Errorf("Close error %v, want %v", err, ErrNoTLSConversation)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("events %q, want %q", got, tc.want)
			}
		})
	}
}

// TestMonitorSkipsIPv4Fragments feeds a conversation's packets as IPv4
// fragments, first fragments (MF set, offset 0) and later ones (offset
// 185), in both directions, each carrying a TLS record. The Monitor
// reassembles no IP, so no fragment is a whole segment, and none may
// open a flow.
func TestMonitorSkipsIPv4Fragments(t *testing.T) {
	x := handKey(40000)
	w := wire.NewWriter(305)
	tlsrec.AppendRecord(w, tlsrec.ContentApplicationData, tlsrec.VersionTLS12, make([]byte, 300))
	m := NewMonitor(&Attacker{Classifier: otherOnlyClassifier{}}, MonitorOptions{})
	base := time.Unix(1700000000, 0)
	const fragField = 14 + 6 // IPv4 flags and fragment offset, after the Ethernet header
	for i, st := range []handStep{{0, x, handSyn}, {10 * time.Millisecond, x.Reverse(), handSynAck}, {20 * time.Millisecond, x, handAck}} {
		for _, frag := range [][2]byte{{0x20, 0}, {0, 185}} {
			frame, err := layers.BuildTCPFrame(st.key, layers.Ethernet{}, st.tcp, w.Bytes(), uint16(i))
			if err != nil {
				t.Fatal(err)
			}
			frame[fragField], frame[fragField+1] = frag[0], frag[1]
			if err := m.FeedPacket(base.Add(st.at), frame); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := m.Stats().Flows; n != 0 {
		t.Fatalf("fragments opened %d flows, want 0", n)
	}
	if _, err := m.Close(); err != ErrNoTLSConversation {
		t.Errorf("Close error %v, want %v", err, ErrNoTLSConversation)
	}
}

// TestMonitorDirectionRules pins which end of a conversation the Monitor
// takes for its client, by the batch orienter's rule: the endpoint talking
// to a well-known port is the client; with two ephemeral ports, or two
// well-known ones, the end whose packet arrives first is, even when that
// is a server segment of a capture started mid-stream. Six conversations
// (five TCP, one QUIC) are fed interleaved, three packets of one before
// the next, and within each the ends take turns in the pattern F F O | O
// F F | F O O, F being the end whose packet comes first: so the
// last-flow memo misses on packets of both orientations, hits on both,
// and resolves an end on a hit (run one's O). Each TCP end sends a
// handshake record, then an application record a packet (the SYN case's
// first end opens with a SYN), so F sends four application records and O
// three. The attacker classifies no report, so Close attacks the largest
// conversation, the first, and expires the rest, in first-seen order;
// each event must carry the client key the rule picks and the records
// and bytes of the right ends.
func TestMonitorDirectionRules(t *testing.T) {
	c, s := netip.MustParseAddr("192.168.1.10"), netip.MustParseAddr("198.51.100.7")
	tcp := func(src netip.Addr, sport uint16, dst netip.Addr, dport uint16) layers.FlowKey {
		return layers.FlowKey{SrcAddr: src, DstAddr: dst, SrcPort: sport, DstPort: dport}
	}
	quic := tcp(s, 443, c, 40004)
	quic.Proto = layers.IPProtocolUDP
	convs := []struct {
		name   string
		first  layers.FlowKey // the key of the conversation's first packet
		syn    bool           // the first end opens with a SYN
		size   int            // application record body bytes
		client layers.FlowKey // what the rule makes the client→server key
	}{
		{"client to a well-known port", tcp(c, 40000, s, 443), false, 2000, tcp(c, 40000, s, 443)},
		{"server from a well-known port", tcp(s, 443, c, 40001), false, 300, tcp(c, 40001, s, 443)},
		{"ephemeral ports, client SYN first", tcp(c, 40002, s, 50000), true, 300, tcp(c, 40002, s, 50000)},
		{"ephemeral ports mid-stream, server first", tcp(s, 50001, c, 40003), false, 300, tcp(s, 50001, c, 40003)},
		{"443 to 443", tcp(s, 443, c, 443), false, 300, tcp(s, 443, c, 443)},
		{"QUIC, server first", quic, false, 300, quic.Reverse()},
	}
	record := func(typ tlsrec.ContentType, size int) []byte {
		w := wire.NewWriter(5 + size)
		tlsrec.AppendRecord(w, typ, tlsrec.VersionTLS12, make([]byte, size))
		return w.Bytes()
	}
	const (
		first, other = true, false
		tick         = 10 * time.Millisecond
	)
	turns := []bool{first, first, other, other, first, first, first, other, other}
	base := time.Unix(1700000000, 0)
	var frames []fuzzFrame
	bytesOf := make([]int64, len(convs))
	for run := 0; run < len(turns)/3; run++ {
		for i, cv := range convs {
			for j, end := range turns[run*3 : run*3+3] {
				k, sent := cv.first, 0 // sent: packets this end sent before
				if !end {
					k = k.Reverse()
				}
				for _, e := range turns[:run*3+j] {
					if e == end {
						sent++
					}
				}
				var frame []byte
				var err error
				if k.Proto == layers.IPProtocolUDP {
					payload := make([]byte, cv.size) // short header
					payload[0] = 0x40
					if sent == 0 {
						payload = []byte{0xc0, 0, 0, 0, 1, 8, 1, 2, 3, 4, 5, 6, 7, 8} // long header, QUIC v1
					}
					bytesOf[i] += int64(len(payload))
					frame, err = layers.BuildUDPFrame(k, layers.Ethernet{}, payload, uint16(len(frames)))
				} else {
					hdr := layers.TCP{Seq: 1000, Flags: layers.TCPAck | layers.TCPPsh}
					var payload []byte
					switch {
					case cv.syn && end == first && sent == 0:
						hdr = layers.TCP{Seq: 999, Flags: layers.TCPSyn}
					case sent == 0 || cv.syn && end == first && sent == 1:
						payload = record(tlsrec.ContentHandshake, 100)
					default:
						hdr.Seq += 105 + uint32(cv.size+5)*uint32(sent-1)
						if cv.syn && end == first {
							hdr.Seq -= uint32(cv.size + 5)
						}
						payload = record(tlsrec.ContentApplicationData, cv.size)
					}
					bytesOf[i] += int64(len(payload))
					frame, err = layers.BuildTCPFrame(k, layers.Ethernet{}, hdr, payload, uint16(len(frames)))
				}
				if err != nil {
					t.Fatal(err)
				}
				frames = append(frames, fuzzFrame{base.Add(time.Duration(len(frames)) * tick), frame})
			}
		}
	}

	var got []string
	m := NewMonitor(&Attacker{Classifier: otherOnlyClassifier{}}, MonitorOptions{OnEvent: func(ev Event) {
		if e, ok := ev.(SessionFinalized); ok {
			got = append(got, fmt.Sprintf("finalized %v: %d records", e.Flow, len(e.Inference.Classified)))
		}
		if e, ok := ev.(FlowExpired); ok {
			got = append(got, fmt.Sprintf("expired %v: %d records, %d bytes, %s", e.Flow, e.Records, e.Bytes, e.Reason))
		}
	}})
	for _, fr := range frames {
		if err := m.FeedPacket(fr.ts, fr.data); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Client application records: 4 when the first end is the client, 3
	// when the other end is, 3 for the SYN case's first end (its SYN took
	// a turn). The QUIC client's short-header datagrams arrive at 330 ms,
	// then at 520 and 530 ms: two bursts, the second flushed at Close.
	records := []int{4, 3, 3, 4, 4, 2}
	want := []string{fmt.Sprintf("finalized %v: %d records", convs[0].client, records[0])}
	for i, cv := range convs[1:] {
		want = append(want, fmt.Sprintf("expired %v: %d records, %d bytes, close", cv.client, records[i+1], bytesOf[i+1]))
	}
	if !slices.Equal(got, want) {
		t.Errorf("events\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// reportOnlyClassifier places every application record in the type-1
// band, so each of reportlessFrames' records reads as an in-band report.
type reportOnlyClassifier struct{}

func (reportOnlyClassifier) Classify(int) (Class, float64) { return ClassType1, 1 }

func (reportOnlyClassifier) Name() string { return "type-1-only" }

// TestMonitorCloseEqualSessionsFirstSeen pins Close's tie rule in batch
// mode: two flows carrying the same in-band record sequence, the first
// seen on the higher client port, both finalize as sessions at Close in
// first-seen order, and of the two equals the first seen is attacked.
// Close returns the very Inference its SessionFinalized carried.
func TestMonitorCloseEqualSessionsFirstSeen(t *testing.T) {
	atk := *trainedAttacker(t, profiles.Fig2Ubuntu, []uint64{101})
	atk.Classifier = reportOnlyClassifier{}
	start := time.Unix(1700000000, 0)
	frames := mergeFrames(reportlessFrames(t, 40001, start, time.Second, 3),
		reportlessFrames(t, 40000, start.Add(500*time.Millisecond), time.Second, 3))
	var finals []SessionFinalized
	m := NewMonitor(&atk, MonitorOptions{OnEvent: func(ev Event) {
		if e, ok := ev.(SessionFinalized); ok {
			finals = append(finals, e)
		}
	}})
	for _, fr := range frames {
		if err := m.FeedPacket(fr.ts, fr.data); err != nil {
			t.Fatal(err)
		}
	}
	inf, err := m.Close()
	if err != nil {
		t.Fatal(err)
	}
	var ports []uint16
	for _, e := range finals {
		ports = append(ports, e.Flow.SrcPort)
	}
	if !slices.Equal(ports, []uint16{40001, 40000}) {
		t.Fatalf("SessionFinalized on ports %v, want [40001 40000]", ports)
	}
	h0, h1 := finals[0].Inference.Hypotheses, finals[1].Inference.Hypotheses
	if len(h0) == 0 || len(h1) == 0 || h0[0].Matched != h1[0].Matched || h0[0].Score != h1[0].Score {
		t.Fatal("the two sessions do not tie on (matched, score)")
	}
	if inf != finals[0].Inference {
		t.Error("Close did not return the first-seen session's Inference")
	}
}

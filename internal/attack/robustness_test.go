package attack

import (
	"bytes"
	"io"
	"testing"
	"time"

	"repro/internal/capture"
	"repro/internal/media"
	"repro/internal/pcapio"
	"repro/internal/profiles"
	"repro/internal/script"
	"repro/internal/session"
	"repro/internal/viewer"
	"repro/internal/wire"
)

// runSessionDefended simulates a session with type-1/type-2 reports
// padded to a constant 4096 bytes.
func runSessionDefended(t *testing.T, seed uint64, cond profiles.Condition) *session.Trace {
	t.Helper()
	g := script.Bandersnatch()
	enc := media.Encode(g, media.DefaultLadder, 42)
	pop := viewer.SamplePopulation(1, wire.NewRNG(seed))
	tr, err := session.Run(session.Config{
		Graph: g, Encoding: enc, Viewer: pop[0],
		Condition: cond, SessionID: "defended", Seed: seed,
		Wire: session.Wire{Reports: session.ReportPolicy{Mode: session.ReportsPad, Param: 4096}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestCrossConditionTrainingDegrades documents why the paper trains per
// condition: bands learned under Ubuntu/Firefox do not transfer to
// Windows/Firefox, whose reports are ~130 bytes larger.
func TestCrossConditionTrainingDegrades(t *testing.T) {
	aUbuntu := trainedAttacker(t, profiles.Fig2Ubuntu, []uint64{300, 301})
	tr := runSession(t, 42, profiles.Fig2Windows)
	obs := observationFromTrace(t, tr)

	classified := ClassifyRecords(obs.ClientRecords, aUbuntu.Classifier)
	var hits int
	for _, c := range classified {
		if c.Class == ClassType1 || c.Class == ClassType2 {
			hits++
		}
	}
	if hits != 0 {
		t.Errorf("Ubuntu-trained bands matched %d Windows records; conditions should not transfer", hits)
	}

	// And the right training fixes it.
	aWindows := trainedAttacker(t, profiles.Fig2Windows, []uint64{300, 301})
	inf, err := aWindows.Infer(obs)
	if err != nil {
		t.Fatal(err)
	}
	correct, total := ScoreDecisions(inf.Decisions, tr.GroundTruthDecisions())
	if correct != total {
		t.Errorf("condition-matched training recovered %d/%d", correct, total)
	}
}

// TestTruncatedCaptureGraceful injects a mid-stream truncation: the
// pipeline must recover the prefix without panicking and the constrained
// decoder must still return a valid path hypothesis.
func TestTruncatedCaptureGraceful(t *testing.T) {
	a := trainedAttacker(t, profiles.Fig2Ubuntu, []uint64{310, 311})
	tr := runSession(t, 55, profiles.Fig2Ubuntu)
	var buf bytes.Buffer
	if err := capture.WritePcap(&buf, tr, capture.Options{Seed: 55}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	for _, frac := range []float64{0.25, 0.5, 0.75} {
		cut := int(float64(len(full)) * frac)
		inf, err := a.InferPcap(full[:cut])
		if err != nil {
			// Acceptable for very short prefixes (no conversation yet),
			// but must never panic.
			continue
		}
		if len(inf.Decisions) > len(tr.GroundTruthDecisions()) {
			t.Errorf("truncation at %.0f%% invented %d decisions (truth %d)",
				100*frac, len(inf.Decisions), len(tr.GroundTruthDecisions()))
		}
	}
}

// TestReorderedCaptureStillRecovers shuffles packets within small windows
// (as a busy capture box would deliver them) and re-runs the attack: TCP
// reassembly must absorb the reordering and the inference stay exact.
func TestReorderedCaptureStillRecovers(t *testing.T) {
	a := trainedAttacker(t, profiles.Fig2Ubuntu, []uint64{320, 321})
	tr := runSession(t, 66, profiles.Fig2Ubuntu)
	var buf bytes.Buffer
	if err := capture.WritePcap(&buf, tr, capture.Options{Seed: 66}); err != nil {
		t.Fatal(err)
	}

	// Read all records, shuffle within windows of 4, rewrite.
	r, err := pcapio.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	rng := wire.NewRNG(1234)
	for i := 0; i+4 <= len(recs); i += 4 {
		window := recs[i : i+4]
		rng.Shuffle(len(window), func(a, b int) { window[a], window[b] = window[b], window[a] })
	}
	var out bytes.Buffer
	w := pcapio.NewWriter(&out)
	for _, rec := range recs {
		if err := w.WritePacket(rec.Timestamp, rec.Data); err != nil {
			t.Fatal(err)
		}
	}

	inf, err := a.InferPcap(out.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	correct, total := ScoreDecisions(inf.Decisions, tr.GroundTruthDecisions())
	if correct != total {
		t.Errorf("reordered capture recovered %d/%d decisions", correct, total)
	}
}

// TestDuplicatedPacketsStillRecover duplicates every 5th packet
// (retransmissions / capture duplicates); reassembly must dedupe.
func TestDuplicatedPacketsStillRecover(t *testing.T) {
	a := trainedAttacker(t, profiles.Fig2Ubuntu, []uint64{330, 331})
	tr := runSession(t, 77, profiles.Fig2Ubuntu)
	var buf bytes.Buffer
	if err := capture.WritePcap(&buf, tr, capture.Options{Seed: 77}); err != nil {
		t.Fatal(err)
	}
	r, err := pcapio.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	w := pcapio.NewWriter(&out)
	i := 0
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WritePacket(rec.Timestamp, rec.Data); err != nil {
			t.Fatal(err)
		}
		if i%5 == 0 {
			if err := w.WritePacket(rec.Timestamp.Add(time.Millisecond), rec.Data); err != nil {
				t.Fatal(err)
			}
		}
		i++
	}
	inf, err := a.InferPcap(out.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	correct, total := ScoreDecisions(inf.Decisions, tr.GroundTruthDecisions())
	if correct != total {
		t.Errorf("duplicated capture recovered %d/%d decisions", correct, total)
	}
}

// TestForeignTrafficIgnored interleaves unrelated frames (ARP-like, other
// flows) into the capture; the extractor must pick the streaming
// conversation and ignore the rest.
func TestForeignTrafficIgnored(t *testing.T) {
	a := trainedAttacker(t, profiles.Fig2Ubuntu, []uint64{340, 341})
	tr := runSession(t, 88, profiles.Fig2Ubuntu)
	var buf bytes.Buffer
	if err := capture.WritePcap(&buf, tr, capture.Options{Seed: 88}); err != nil {
		t.Fatal(err)
	}
	r, err := pcapio.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	w := pcapio.NewWriter(&out)
	junk := make([]byte, 60) // undecodable frame (bad ethertype)
	junk[12], junk[13] = 0x08, 0x06
	i := 0
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if i%7 == 0 {
			if err := w.WritePacket(rec.Timestamp, junk); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.WritePacket(rec.Timestamp, rec.Data); err != nil {
			t.Fatal(err)
		}
		i++
	}
	inf, err := a.InferPcap(out.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	correct, total := ScoreDecisions(inf.Decisions, tr.GroundTruthDecisions())
	if correct != total {
		t.Errorf("capture with foreign traffic recovered %d/%d decisions", correct, total)
	}
}

// TestDefendedTrafficDefeatsRecordAttack is the C1 negative control at
// the unit level: padding makes the trained bands miss everything.
func TestDefendedTrafficDefeatsRecordAttack(t *testing.T) {
	a := trainedAttacker(t, profiles.Fig2Ubuntu, []uint64{350, 351})
	tr := runSessionDefended(t, 99, profiles.Fig2Ubuntu)
	obs := observationFromTrace(t, tr)
	classified := ClassifyRecords(obs.ClientRecords, a.Classifier)
	for _, c := range classified {
		if c.Class != ClassOther {
			t.Fatalf("padded record of %d bytes classified %v", c.Record.Length, c.Class)
		}
	}
}

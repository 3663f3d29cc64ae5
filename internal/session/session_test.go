package session

import (
	"slices"
	"testing"
	"time"

	"repro/internal/media"
	"repro/internal/profiles"
	"repro/internal/script"
	"repro/internal/statejson"
	"repro/internal/tlsrec"
	"repro/internal/viewer"
	"repro/internal/wire"
)

func testTrace(t *testing.T, seed uint64, cond profiles.Condition) *Trace {
	t.Helper()
	g := script.Bandersnatch()
	enc := media.Encode(g, media.DefaultLadder, 42)
	pop := viewer.SamplePopulation(1, wire.NewRNG(seed))
	tr, err := Run(Config{
		Graph:     g,
		Encoding:  enc,
		Viewer:    pop[0],
		Condition: cond,
		SessionID: "t-sess",
		Seed:      seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestRunProducesBothStreams(t *testing.T) {
	tr := testTrace(t, 1, profiles.Fig2Ubuntu)
	if len(tr.ClientToServer.Bytes) == 0 || len(tr.ServerRecords) == 0 {
		t.Fatal("empty stream(s)")
	}
	// Server direction must dwarf the client direction (video download).
	last := tr.ServerRecords[len(tr.ServerRecords)-1]
	if span := int(last.StreamOffset) + last.WireLen(); span < 10*len(tr.ClientToServer.Bytes) {
		t.Errorf("s2c %d bytes vs c2s %d: media volume implausible",
			span, len(tr.ClientToServer.Bytes))
	}
}

func TestClientStreamParsesAsTLS(t *testing.T) {
	tr := testTrace(t, 2, profiles.Fig2Ubuntu)
	recs, rest, err := tlsrec.ParseStream(tr.ClientToServer.Bytes, tr.ClientToServer.TimeAt)
	if err != nil {
		t.Fatal(err)
	}
	if rest != 0 {
		t.Errorf("unparsed client bytes: %d", rest)
	}
	if len(recs) < 10 {
		t.Errorf("client records = %d, implausibly few", len(recs))
	}
	// First record is a handshake record.
	if recs[0].Type != tlsrec.ContentHandshake {
		t.Errorf("first record type = %v", recs[0].Type)
	}
}

func TestGroundTruthConsistency(t *testing.T) {
	tr := testTrace(t, 3, profiles.Fig2Ubuntu)
	// Count labeled writes.
	var n1, n2 int
	for _, w := range tr.ClientWrites {
		switch w.Label {
		case LabelType1:
			n1++
		case LabelType2:
			n2++
		}
	}
	if n1 != len(tr.Result.Choices) {
		t.Errorf("type-1 writes %d != choices met %d", n1, len(tr.Result.Choices))
	}
	var nonDefault int
	for _, d := range tr.GroundTruthDecisions() {
		if !d {
			nonDefault++
		}
	}
	if n2 != nonDefault {
		t.Errorf("type-2 writes %d != non-default decisions %d", n2, nonDefault)
	}
}

func TestRecordLengthsMatchProfileBands(t *testing.T) {
	tr := testTrace(t, 4, profiles.Fig2Ubuntu)
	p := tr.Profile
	lo1, hi1 := p.Type1RecordRange()
	lo2, hi2 := p.Type2RecordRange()
	for _, w := range tr.ClientWrites {
		if len(w.Records) != 1 && (w.Label == LabelType1 || w.Label == LabelType2) {
			t.Fatalf("%v write produced %d records", w.Label, len(w.Records))
		}
		switch w.Label {
		case LabelType1:
			if l := w.Records[0].Length; l < lo1 || l > hi1 {
				t.Errorf("type-1 record %d outside band [%d,%d]", l, lo1, hi1)
			}
		case LabelType2:
			if l := w.Records[0].Length; l < lo2 || l > hi2 {
				t.Errorf("type-2 record %d outside band [%d,%d]", l, lo2, hi2)
			}
		}
	}
}

func TestServerSawSameReports(t *testing.T) {
	// Server-side ingested reports must mirror the client's ground truth
	// exactly: same count, same order of kinds.
	g := script.Bandersnatch()
	enc := media.Encode(g, media.DefaultLadder, 42)
	pop := viewer.SamplePopulation(1, wire.NewRNG(5))
	tr, err := Run(Config{Graph: g, Encoding: enc, Viewer: pop[0],
		Condition: profiles.Fig2Windows, SessionID: "s", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var wantKinds []statejson.Kind
	for _, w := range tr.ClientWrites {
		switch w.Label {
		case LabelType1:
			wantKinds = append(wantKinds, statejson.Type1)
		case LabelType2:
			wantKinds = append(wantKinds, statejson.Type2)
		}
	}
	_ = wantKinds
	// The trace does not retain the server, so re-derive: count type-2 =
	// non-default decisions (already covered); here check positions are
	// monotone.
	var prev time.Time
	for _, w := range tr.ClientWrites {
		if w.Time.Before(prev) {
			t.Fatalf("client writes out of order: %v then %v", prev, w.Time)
		}
		prev = w.Time
	}
}

func TestWriteMarksMonotone(t *testing.T) {
	tr := testTrace(t, 6, profiles.Fig2Ubuntu)
	for _, d := range []DirStream{tr.ClientToServer, tr.ServerToClient} {
		var prevOff int64 = -1
		for _, m := range d.Writes {
			if m.Offset <= prevOff {
				t.Fatalf("write marks not strictly increasing: %d after %d", m.Offset, prevOff)
			}
			prevOff = m.Offset
		}
	}
}

func TestTimeAtResolution(t *testing.T) {
	d := DirStream{}
	t0 := time.Unix(100, 0)
	t1 := time.Unix(200, 0)
	d.mark(0, t0)
	d.mark(1000, t1)
	if got := d.TimeAt(0); !got.Equal(t0) {
		t.Errorf("TimeAt(0) = %v", got)
	}
	if got := d.TimeAt(999); !got.Equal(t0) {
		t.Errorf("TimeAt(999) = %v", got)
	}
	if got := d.TimeAt(1000); !got.Equal(t1) {
		t.Errorf("TimeAt(1000) = %v", got)
	}
	if got := d.TimeAt(5000); !got.Equal(t1) {
		t.Errorf("TimeAt(5000) = %v", got)
	}
}

func TestRunDeterministic(t *testing.T) {
	a := testTrace(t, 7, profiles.Fig2Ubuntu)
	b := testTrace(t, 7, profiles.Fig2Ubuntu)
	if len(a.ClientToServer.Bytes) != len(b.ClientToServer.Bytes) {
		t.Fatal("client streams differ across identical seeds")
	}
	if len(a.ClientWrites) != len(b.ClientWrites) {
		t.Fatal("write counts differ")
	}
	for i := range a.ClientWrites {
		if a.ClientWrites[i].Label != b.ClientWrites[i].Label ||
			!a.ClientWrites[i].Time.Equal(b.ClientWrites[i].Time) {
			t.Fatalf("write %d differs", i)
		}
	}
}

func TestRunSeedsDiffer(t *testing.T) {
	a := testTrace(t, 8, profiles.Fig2Ubuntu)
	b := testTrace(t, 9, profiles.Fig2Ubuntu)
	if len(a.ClientToServer.Bytes) == len(b.ClientToServer.Bytes) &&
		len(a.ClientWrites) == len(b.ClientWrites) &&
		len(a.Result.Path.Segments) == len(b.Result.Path.Segments) {
		// Paths could coincide, but all three matching exactly with the
		// same byte count means the seed is being ignored.
		same := true
		for i := range a.ClientToServer.Bytes {
			if a.ClientToServer.Bytes[i] != b.ClientToServer.Bytes[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical traces")
		}
	}
}

// TestDefenseTransformApplied: under each report policy every type-1 and
// type-2 write goes out as the records of the reference transform's
// sizes, and every other write as the records of its own size.
func TestDefenseTransformApplied(t *testing.T) {
	g := script.Bandersnatch()
	enc := media.Encode(g, media.DefaultLadder, 42)
	pop := viewer.SamplePopulation(1, wire.NewRNG(10))
	for _, label := range []string{"tls1.2+reports-pad-4096", "tls1.2+reports-split-1200", "tls1.2+reports-compress-55"} {
		w, err := ParseWire(label)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := Run(Config{
			Graph: g, Encoding: enc, Viewer: pop[0],
			Condition: profiles.Fig2Ubuntu, Seed: 10, Wire: w,
		})
		if err != nil {
			t.Fatal(err)
		}
		ref := refSizes(w.Reports)
		var reports int
		for _, cw := range tr.ClientWrites {
			if cw.Label == LabelHandshake {
				continue
			}
			if cw.Label == LabelType1 || cw.Label == LabelType2 {
				reports++
			}
			var want []int
			for _, n := range ref(cw.Label, cw.Plain) {
				for _, pt := range tr.Profile.Splitter.Split(n) {
					want = append(want, tr.Profile.Suite.CiphertextLen(pt))
				}
			}
			var got []int
			for _, r := range cw.Records {
				got = append(got, r.Length)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: %v write of %d bytes has records %v, want %v", label, cw.Label, cw.Plain, got, want)
			}
		}
		if reports == 0 {
			t.Fatalf("%s: session sent no reports", label)
		}
	}
}

func TestTimingGapAtNonDefaultChoice(t *testing.T) {
	// The residual timing channel: hunt for a viewer/seed that takes a
	// non-default branch and confirm the type-2 write exists at the
	// decision time recorded in ground truth.
	for seed := uint64(1); seed < 30; seed++ {
		tr := testTrace(t, seed, profiles.Fig2Ubuntu)
		for i, c := range tr.Result.Choices {
			if c.TookDefault {
				continue
			}
			// Find the matching type-2 write.
			found := false
			for _, w := range tr.ClientWrites {
				if w.Label == LabelType2 && w.Time.Equal(c.DecidedAt) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("seed %d choice %d: no type-2 write at decision time", seed, i)
			}
			return // one confirmed instance suffices
		}
	}
	t.Skip("no non-default choice in 30 seeds (improbable)")
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	g := script.TinyScript()
	if _, err := Run(Config{Graph: g}); err == nil {
		t.Error("missing encoding accepted")
	}
}

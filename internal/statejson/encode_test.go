package statejson

import (
	"encoding/json"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/profiles"
	"repro/internal/script"
	"repro/internal/wire"
)

// TestAppendEscapedMatchesEncodingJSON: the append-only escaper must be
// byte-identical to json.Marshal's string rendering (escapeHTML mode) on
// every input — the corpus format documents report bodies as real
// encoding/json documents, so the fast path may not drift by a byte.
func TestAppendEscapedMatchesEncodingJSON(t *testing.T) {
	check := func(s string) {
		t.Helper()
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("marshal %q: %v", s, err)
		}
		got := append([]byte{'"'}, appendEscaped(nil, s)...)
		got = append(got, '"')
		if string(got) != string(want) {
			t.Errorf("escape %q:\n got %s\nwant %s", s, got, want)
		}
	}
	for _, s := range []string{
		"", "plain ascii", `quotes " and \ slashes`,
		"\b\f\n\r\t", "\x00\x01\x1f\x7f", "<script>&amp;</script>",
		"h\u00e9llo w\u00f6rld \u4e16\u754c", "\u2028\u2029",
		string([]byte{0xff, 0xfe, 'a'}), string([]byte{0xc3}), // truncated rune
		"mixed \xffinvalid\u2028and<html>&\"quoted\"",
	} {
		check(s)
	}
	if err := quick.Check(func(s string) bool {
		want, _ := json.Marshal(s)
		got := append([]byte{'"'}, appendEscaped(nil, s)...)
		got = append(got, '"')
		return string(got) == string(want)
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// marshalReport is the retired encoder: the double json.Marshal round
// trip the append-only writer replaced. Kept as the test oracle.
func marshalReport(b *Builder, r Report, target int) ([]byte, error) {
	r.State = ""
	base, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	need := target - len(base)
	if need < 0 {
		return nil, nil
	}
	r.State = b.token(need)
	return json.Marshal(r)
}

// TestEncodeMatchesMarshalOracle: full documents from the plan-cached
// encoder are byte-identical to the marshal-based oracle under every
// grid profile, including builders whose IDs need escaping. The two
// builders share a seed so the oracle's token draw reproduces the
// encoder's state blob.
func TestEncodeMatchesMarshalOracle(t *testing.T) {
	grid := profiles.Grid()
	ids := []struct{ movie, sess string }{
		{"movie", "sess-001"},
		{"m<tag>&x", `q"uo\te`},
		{"line\u2028break", "ctrl\tchars\n"},
	}
	for _, id := range ids {
		for ci, cond := range grid {
			p := profiles.Lookup(cond)
			seed := uint64(ci*31 + 7)
			enc := NewBuilder(p, id.movie, id.sess, wire.NewRNG(seed))
			oracle := NewBuilder(p, id.movie, id.sess, wire.NewRNG(seed))
			for k := 0; k < 4; k++ {
				pos := int64(k * 12345)
				got, gr, err := enc.Type1(script.SegmentID("S2"), pos)
				if err != nil {
					t.Fatalf("%v/%q: %v", cond, id.movie, err)
				}
				target := len(got)
				// Rewind the oracle identically: jitter draw, then encode.
				oracle.jitter(p.Type1Jitter)
				want, err := marshalReport(oracle, Report{
					Kind: Type1, Event: "interactive.choicePointReached",
					MovieID: id.movie, SessionID: id.sess,
					ChoicePoint: "S2", PositionMs: pos,
				}, target)
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(want) {
					t.Fatalf("%v/%q type-1 drifted:\n got %s\nwant %s", cond, id.movie, got, want)
				}
				if gr.State == "" && target > 0 && len(want) > 0 {
					// State is the pad; an empty one is legal only when the
					// base exactly hits the target.
					var chk Report
					if err := json.Unmarshal(want, &chk); err != nil {
						t.Fatal(err)
					}
					if chk.State != gr.State {
						t.Fatalf("state mismatch: %q vs %q", gr.State, chk.State)
					}
				}

				got2, _, err := enc.Type2(script.SegmentID("S2"), script.SegmentID("S3b"), pos)
				if err != nil {
					t.Fatal(err)
				}
				oracle.jitter(p.Type2Jitter)
				want2, err := marshalReport(oracle, Report{
					Kind: Type2, Event: "interactive.selectionCommitted",
					MovieID: id.movie, SessionID: id.sess,
					ChoicePoint: "S2", Selection: "S3b", PositionMs: pos,
				}, len(got2))
				if err != nil {
					t.Fatal(err)
				}
				if string(got2) != string(want2) {
					t.Fatalf("%v/%q type-2 drifted:\n got %s\nwant %s", cond, id.movie, got2, want2)
				}
			}
		}
	}
}

// TestOpaqueBodiesRoundTrip: request/telemetry bodies are valid JSON of
// the calibrated lengths and their RNG consumption matches the padded
// report path (one draw per token character after the jitter draw).
func TestOpaqueBodiesRoundTrip(t *testing.T) {
	p := profiles.Lookup(profiles.Grid()[0])
	b := NewBuilder(p, "m", "s", wire.NewRNG(99))
	req := b.RequestBody()
	var doc map[string]string
	if err := json.Unmarshal(req, &doc); err != nil {
		t.Fatalf("request body is not JSON: %s", req)
	}
	tel := b.TelemetryBody()
	if err := json.Unmarshal(tel, &doc); err != nil {
		t.Fatalf("telemetry body is not JSON: %s", tel)
	}
	if len(tel) <= len(req) {
		t.Fatalf("telemetry (%d) should outsize requests (%d)", len(tel), len(req))
	}
}

// TestSizeFormsMatchMintingForms: each size-only form returns the length
// of the body its minting form builds from the same stream, the report
// forms the same Report apart from State, and both leave the stream in
// the same place. It runs every grid profile over random choice points
// and selections (escapes included) and positions of every digit count,
// plus profiles sized to hit the request floor, an empty telemetry blob
// and a report target below the document's base, where both forms must
// fail alike.
func TestSizeFormsMatchMintingForms(t *testing.T) {
	ids := wire.NewRNG(5)
	const alphabet = "Sab019-_\"\\<>&\n\t\x01"
	randomID := func() script.SegmentID {
		id := make([]byte, 0, 16)
		for n := ids.Intn(12); n > 0; n-- {
			switch ids.Intn(8) {
			case 0:
				id = append(id, "\u2028é\xff"[ids.Intn(6):]...)
			default:
				id = append(id, alphabet[ids.Intn(len(alphabet))])
			}
		}
		return script.SegmentID(id)
	}

	var profs []profiles.Profile
	for _, cond := range profiles.Grid() {
		profs = append(profs, profiles.Lookup(cond))
	}
	tiny := profs[0]
	tiny.RequestLen, tiny.RequestJitter = 3, 2 // below the 16-byte floor
	tiny.TelemetryLen, tiny.TelemetryJitter = 6, 4
	tiny.Type1BodyLen, tiny.Type1Jitter = 60, 0 // below every report's base
	tiny.Type2BodyLen, tiny.Type2Jitter = 90, 3
	profs = append(profs, tiny)

	for pi, p := range profs {
		seed := uint64(pi)*977 + 3
		mintRNG, sizeRNG := wire.NewRNG(seed), wire.NewRNG(seed)
		mint := NewBuilder(p, "movie<1>", "sess-\"q\"", mintRNG)
		sized := NewBuilder(p, "movie<1>", "sess-\"q\"", sizeRNG)
		for k := 0; k < 12; k++ {
			cp, sel := randomID(), randomID()
			pos := int64(ids.Uint64() >> ids.Intn(64))
			if ids.Intn(4) == 0 {
				pos = -pos
			}
			var (
				body      []byte
				n         int
				r, rs     Report
				err, errs error
			)
			switch k % 4 {
			case 0:
				body, r, err = mint.Type1(cp, pos)
				n, rs, errs = sized.Type1Size(cp, pos)
			case 1:
				body, r, err = mint.Type2(cp, sel, pos)
				n, rs, errs = sized.Type2Size(cp, sel, pos)
			case 2:
				body, n = mint.RequestBody(), sized.RequestSize()
			case 3:
				body, n = mint.TelemetryBody(), sized.TelemetrySize()
			}
			if fmt.Sprint(err) != fmt.Sprint(errs) {
				t.Fatalf("profile %d call %d: minting error %v, size-only error %v", pi, k, err, errs)
			}
			if len(body) != n {
				t.Fatalf("profile %d call %d: minting body %d bytes, size-only %d", pi, k, len(body), n)
			}
			if rs.State != "" {
				t.Fatalf("profile %d call %d: size-only report has a State", pi, k)
			}
			r.State = ""
			if r != rs {
				t.Fatalf("profile %d call %d: reports differ:\n mint %+v\n size %+v", pi, k, r, rs)
			}
		}
		if a, b := mintRNG.Uint64(), sizeRNG.Uint64(); a != b {
			t.Fatalf("profile %d: streams diverged: %#x after minting, %#x after sizing", pi, a, b)
		}
	}

	// The tiny profile's type-1 target sits below any type-1 base.
	if _, _, err := NewBuilder(tiny, "m", "s", wire.NewRNG(1)).Type1Size("S2", 1); err == nil {
		t.Fatal("size-only type-1 below its base did not fail")
	}
}

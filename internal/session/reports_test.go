package session

import (
	"slices"
	"testing"
)

// refPad, refSplit and refCompress are reference implementations of the
// three report transforms, coded apart from ReportPolicy.appendSizes so
// the tests compare two codings of each: the plaintext sizes one write
// of plain bytes under label goes out as.
func refPad(target int) func(WriteLabel, int) []int {
	return func(label WriteLabel, plain int) []int {
		if label != LabelType1 && label != LabelType2 {
			return []int{plain}
		}
		if plain < target {
			plain = target
		}
		return []int{plain}
	}
}

func refSplit(chunk int) func(WriteLabel, int) []int {
	return func(label WriteLabel, plain int) []int {
		if label != LabelType1 && label != LabelType2 {
			return []int{plain}
		}
		if chunk <= 0 {
			return []int{plain}
		}
		var out []int
		for plain > 0 {
			n := chunk
			if n > plain {
				n = plain
			}
			out = append(out, n)
			plain -= n
		}
		if len(out) == 0 {
			out = []int{0}
		}
		return out
	}
}

func refCompress(ratioPct, jitter int) func(WriteLabel, int) []int {
	return func(label WriteLabel, plain int) []int {
		if label != LabelType1 && label != LabelType2 {
			return []int{plain}
		}
		out := plain * ratioPct / 100
		if jitter > 0 {
			h := uint64(plain)*0x9e3779b97f4a7c15 + 0x243f6a8885a308d3
			h ^= h >> 29
			out += int(h % uint64(2*jitter+1))
			out -= jitter
		}
		if out < 32 {
			out = 32
		}
		return []int{out}
	}
}

// refSizes returns the reference transform for a report policy.
func refSizes(p ReportPolicy) func(WriteLabel, int) []int {
	switch p.Mode {
	case ReportsPad:
		return refPad(p.Param)
	case ReportsSplit:
		return refSplit(p.Param)
	case ReportsCompress:
		return refCompress(p.Param, 40)
	}
	return func(_ WriteLabel, plain int) []int { return []int{plain} }
}

// TestReportPolicySizes: every report policy gives the reference
// transform's sizes, for every write label and every plain size from 0
// to 20000, the label's String form included.
func TestReportPolicySizes(t *testing.T) {
	for _, label := range []string{
		"tls1.2", "tls1.2+reports-pad-4096", "tls1.2+reports-pad-16384",
		"tls1.2+reports-split-1200", "tls1.2+reports-split-1000", "tls1.3+reports-split-16384",
		"tls1.2+reports-compress-55", "tls1.2+reports-compress-1", "tls1.3+reports-compress-100",
	} {
		w, err := ParseWire(label)
		if err != nil {
			t.Fatal(err)
		}
		ref := refSizes(w.Reports)
		var got []int
		for l := LabelHandshake; l <= LabelTelemetry; l++ {
			for plain := 0; plain <= 20000; plain++ {
				got = w.Reports.appendSizes(got[:0], l, plain)
				if want := ref(l, plain); !slices.Equal(got, want) {
					t.Fatalf("%s: %v write of %d bytes goes out as %v, want %v", label, l, plain, got, want)
				}
			}
		}
	}
}

func TestReportsPadEqualizes(t *testing.T) {
	p := ReportPolicy{Mode: ReportsPad, Param: 4096}
	a := p.appendSizes(nil, LabelType1, 2188)
	b := p.appendSizes(nil, LabelType2, 2980)
	if len(a) != 1 || len(b) != 1 || a[0] != b[0] || a[0] != 4096 {
		t.Errorf("padded sizes = %v, %v, want both [4096]", a, b)
	}
	// Non-report traffic untouched.
	if got := p.appendSizes(nil, LabelRequest, 420); got[0] != 420 {
		t.Errorf("request padded: %v", got)
	}
	// Oversize inputs pass through unshrunk.
	if got := p.appendSizes(nil, LabelType2, 5000); got[0] != 5000 {
		t.Errorf("oversize report shrunk: %v", got)
	}
}

func TestReportsSplitChunks(t *testing.T) {
	p := ReportPolicy{Mode: ReportsSplit, Param: 1000}
	got := p.appendSizes(nil, LabelType2, 2980)
	if !slices.Equal(got, []int{1000, 1000, 980}) {
		t.Errorf("split = %v", got)
	}
	if got := p.appendSizes(nil, LabelTelemetry, 4600); len(got) != 1 {
		t.Errorf("telemetry split: %v", got)
	}
}

func TestReportsCompressShrinksAndJitters(t *testing.T) {
	p := ReportPolicy{Mode: ReportsCompress, Param: 55}
	size := func(plain int) int { return p.appendSizes(nil, LabelType1, plain)[0] }
	a := size(2188)
	if a >= 2188 || a < 32 {
		t.Errorf("compressed size = %d", a)
	}
	// Different inputs with the same label produce non-linear outputs.
	if b := size(2190); a == b && size(2192) == a {
		t.Error("compression jitter absent")
	}
	// Determinism: same input, same output.
	if size(2188) != a {
		t.Error("compression not deterministic")
	}
}

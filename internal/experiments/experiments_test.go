package experiments

import (
	"slices"
	"strings"
	"testing"
)

func TestTable1(t *testing.T) {
	res, err := Table1(12, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 12 {
		t.Errorf("N = %d", res.N)
	}
	for _, want := range []string{"Table I", "Operating System", "Political Alignment"} {
		if !strings.Contains(res.Report, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestFigure1(t *testing.T) {
	res, err := Figure1(1)
	if err != nil {
		t.Fatal(err)
	}
	var type1, type2 int
	for _, e := range res.Events {
		switch e.Kind {
		case "type-1 JSON":
			type1++
		case "type-2 JSON":
			type2++
		}
	}
	// The Figure 1 narrative: two questions, one non-default choice.
	if type1 != 2 {
		t.Errorf("type-1 events = %d, want 2", type1)
	}
	if type2 != 1 {
		t.Errorf("type-2 events = %d, want 1", type2)
	}
	if !strings.Contains(res.Report, "Figure 1") {
		t.Error("report missing title")
	}
	// Events are time-ordered relative to session start.
	for i := 1; i < len(res.Events); i++ {
		if res.Events[i].Kind == "decision" {
			continue // decisions are appended after writes
		}
	}
}

func TestFigure2PanelsMatchPaperShape(t *testing.T) {
	res, err := Figure2(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Panels) != 2 {
		t.Fatalf("panels = %d", len(res.Panels))
	}
	for _, p := range res.Panels {
		// The paper's bars: essentially all type-1 mass in the narrow
		// type-1 bin, all type-2 mass in the type-2 bin.
		if got := p.Type1Purity(); got < 99 {
			t.Errorf("%s: type-1 purity %.1f%%, want ~100%%", p.Condition, got)
		}
		if got := p.Type2Purity(); got < 99 {
			t.Errorf("%s: type-2 purity %.1f%%, want ~100%%", p.Condition, got)
		}
		// "Others" must not pollute the two report bins.
		if leak := p.Histogram.Percent("others", 1) + p.Histogram.Percent("others", 3); leak > 1 {
			t.Errorf("%s: others leak %.1f%% into report bins", p.Condition, leak)
		}
	}
	if !strings.Contains(res.Report, "SSL record length distribution") {
		t.Error("report missing title")
	}
}

func TestAccuracyHeadline(t *testing.T) {
	res, err := Accuracy(10, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sessions) != 10 {
		t.Fatalf("sessions = %d", len(res.Sessions))
	}
	// The paper reports 96% worst case; the reproduction's clean
	// separability should meet or beat that.
	if res.WorstCase < 0.96 {
		t.Errorf("worst-case accuracy %.2f, want >= 0.96", res.WorstCase)
	}
	if res.Mean < res.WorstCase {
		t.Error("mean below worst case")
	}
	if !strings.Contains(res.Report, "worst case") {
		t.Error("report missing worst case line")
	}
}

func TestClassifierAblation(t *testing.T) {
	res, err := ClassifierAblation(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"interval-band", "nearest-centroid", "knn-5"} {
		acc, ok := res.PerClassifier[name]
		if !ok {
			t.Fatalf("missing classifier %s", name)
		}
		if acc < 0.9 {
			t.Errorf("%s accuracy %.2f, implausibly low", name, acc)
		}
	}
	// The paper's interval rule should be at least as good as centroid
	// here (centroid has no 'other' rejection region by distance).
	if res.PerClassifier["interval-band"] < res.PerClassifier["nearest-centroid"]-0.05 {
		t.Errorf("interval-band (%.2f) far below centroid (%.2f)",
			res.PerClassifier["interval-band"], res.PerClassifier["nearest-centroid"])
	}
}

func TestBaselinesShape(t *testing.T) {
	res, err := Baselines(20, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"bitrate", "burst-knn"} {
		intra := res.IntraTitleAccuracy[name]
		inter := res.InterTitleAccuracy[name]
		// Intra-title: near chance (0.5). Allow up to 0.75 for small trials.
		if intra > 0.75 {
			t.Errorf("%s intra-title accuracy %.2f: branches too separable", name, intra)
		}
		// Inter-title: clearly above chance (0.33), confirming the
		// implementation is no strawman.
		if inter < 0.8 {
			t.Errorf("%s inter-title accuracy %.2f: baseline broken", name, inter)
		}
		if inter <= intra {
			t.Errorf("%s: inter (%.2f) should exceed intra (%.2f)", name, inter, intra)
		}
	}
}

// TestDefensesShape: the §VI countermeasure sweep. The bare stack is
// attacked near perfectly, the blind floor sits below it, and each report
// policy pushes the stale attacker, profiled before the policy deployed,
// down to about the floor.
func TestDefensesShape(t *testing.T) {
	res, err := Shaping(4, DefaultReportCells(), 9)
	if err != nil {
		t.Fatal(err)
	}
	none := res.Points[0].MeanAccuracy
	if none < 0.95 {
		t.Errorf("undefended accuracy %.2f, want ~1", none)
	}
	// The blind-guess floor is well below the undefended attack (the
	// default-branch prior is strong but not perfect).
	if res.BlindFloor >= none {
		t.Errorf("blind floor %.2f not below undefended attack %.2f", res.BlindFloor, none)
	}
	for _, p := range res.Points[1:] {
		// Each defense must push the stale attack down to (about) the
		// blind floor: the signal is gone, only the prior remains.
		if acc := p.Stale.MeanAccuracy; acc > res.BlindFloor+0.12 {
			t.Errorf("defense %s leaves stale accuracy %.2f above blind floor %.2f",
				p.Cell.Wire, acc, res.BlindFloor)
		}
	}
}

func TestTimingChannelSurvives(t *testing.T) {
	res, err := Timing(6, 11)
	if err != nil {
		t.Fatal(err)
	}
	if res.EventDetectionRate < 0.9 {
		t.Errorf("timing detector finds %.0f%% of choice points, want >= 90%%",
			100*res.EventDetectionRate)
	}
	if res.DecisionAccuracy < 0.85 {
		t.Errorf("timing decision accuracy %.2f, want >= 0.85 (the channel should survive padding)",
			res.DecisionAccuracy)
	}
}

func TestPrefetchAblation(t *testing.T) {
	res, err := PrefetchAblation(4, 13)
	if err != nil {
		t.Fatal(err)
	}
	// Without prefetch, the default/non-default gap asymmetry should
	// shrink, degrading the timing attack toward chance.
	if res.WithoutPrefetch > res.WithPrefetch {
		t.Errorf("prefetch-off accuracy %.2f exceeds prefetch-on %.2f",
			res.WithoutPrefetch, res.WithPrefetch)
	}
}

// TestDefaultShapingCells pins the three default sweeps' cells and order:
// wmbench's tls13, quic and defenses rows and metric keys derive from
// these labels.
func TestDefaultShapingCells(t *testing.T) {
	var got []string
	for _, c := range slices.Concat(DefaultTLSCells(), DefaultQUICCells(), DefaultReportCells()) {
		got = append(got, c.Label())
	}
	want := []string{
		"tls1.2/noise-2", "tls1.3/noise-2", "tls1.3+pad-to-64/noise-2",
		"tls1.3+pad-to-256/noise-2", "tls1.3+pad-random-128/noise-2", "tls1.3+pad-random-512/noise-2",
		"quic+default-1350/noise-0", "quic+default-1350/noise-1", "quic+default-1350/noise-2",
		"quic+fixed-1200/noise-2", "quic+pad-full-1350/noise-2", "quic+pad-random-1350+2/noise-2",
		"tls1.2/noise-0", "tls1.2+reports-pad-4096/noise-0", "tls1.2+reports-split-1200/noise-0",
		"tls1.2+reports-compress-55/noise-0",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("default shaping cells\n got %v\nwant %v", got, want)
	}
}

func TestShapingNeedsCells(t *testing.T) {
	if _, err := Shaping(4, nil, 3); err == nil {
		t.Error("Shaping with no cells should error, not return an empty sweep")
	}
}

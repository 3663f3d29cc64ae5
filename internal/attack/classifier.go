package attack

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/session"
)

// Class is the attacker-side label for a client record.
type Class int

// Classes.
const (
	ClassOther Class = iota
	ClassType1
	ClassType2
)

// String names the class the way the paper does.
func (c Class) String() string {
	switch c {
	case ClassType1:
		return "type-1"
	case ClassType2:
		return "type-2"
	default:
		return "others"
	}
}

// Example is one labeled training record length.
type Example struct {
	Length int
	Class  Class
}

// Classifier assigns a class to a record length, with a confidence score
// in (0, 1] used by the graph-constrained decoder.
type Classifier interface {
	Classify(length int) (Class, float64)
	Name() string
}

// Trainer builds a classifier from labeled examples.
type Trainer interface {
	Train(examples []Example) (Classifier, error)
}

// SoftClassifier is an optional refinement a classifier can implement: a
// weak secondary hypothesis for records that fall just outside every
// learned band. Real report lengths drift between profiling and attack
// (session tokens, position digits, browser builds shift bodies by a few
// bytes), so a record a handful of bytes off a band is far more likely a
// drifted report than ordinary traffic. The constrained decoder uses
// these as speculative, timestamped evidence — following the
// traffic-analysis literature's point that length and timing carry the
// signal together. Implementations return (ClassOther, 0) when no band
// is near.
type SoftClassifier interface {
	SoftClassify(length int) (Class, float64)
}

// --- Interval-band classifier (the paper's rule) ---------------------------

// IntervalBand is the paper's classifier: type-1 and type-2 records each
// fall in a narrow learned [lo, hi] band of record lengths; everything
// outside both bands is "others". Bands are widened by a configurable
// margin to absorb unseen jitter.
type IntervalBand struct {
	T1Lo, T1Hi int
	T2Lo, T2Hi int
}

// Name implements Classifier.
func (c *IntervalBand) Name() string { return "interval-band" }

// Classify implements Classifier.
func (c *IntervalBand) Classify(length int) (Class, float64) {
	switch {
	case length >= c.T1Lo && length <= c.T1Hi:
		return ClassType1, 1.0
	case length >= c.T2Lo && length <= c.T2Hi:
		return ClassType2, 1.0
	}
	// Confidence that it is "other" decays near the band edges.
	d := float64(minDistance(length, c.T1Lo, c.T1Hi, c.T2Lo, c.T2Hi))
	conf := 1 - math.Exp(-d/8)
	if conf < 0.5 {
		conf = 0.5
	}
	return ClassOther, conf
}

// softRadius bounds how far outside a band a record may fall and still
// count as a drifted-report candidate. It mirrors the trainer's default
// widening margin: drift beyond another margin-width is indistinguishable
// from foreign traffic.
const softRadius = 32

// SoftClassify implements SoftClassifier: records within softRadius of a
// band are weak candidates for that band's class, with confidence
// decaying in the distance. In-band records never reach here (Classify
// already claimed them).
func (c *IntervalBand) SoftClassify(length int) (Class, float64) {
	d1 := bandDistance(length, c.T1Lo, c.T1Hi)
	d2 := bandDistance(length, c.T2Lo, c.T2Hi)
	cls, d := ClassType1, d1
	if d2 < d {
		cls, d = ClassType2, d2
	}
	if d > softRadius {
		return ClassOther, 0
	}
	return cls, 0.5 * math.Exp(-float64(d)/24)
}

// bandDistance is the distance from v to the closed interval [lo, hi].
func bandDistance(v, lo, hi int) int {
	switch {
	case v < lo:
		return lo - v
	case v > hi:
		return v - hi
	default:
		return 0
	}
}

func minDistance(v int, bounds ...int) int {
	best := math.MaxInt
	for _, b := range bounds {
		if d := abs(v - b); d < best {
			best = d
		}
	}
	return best
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// bandMargin widens each learned band by this many bytes on both sides.
// It covers the session-token length jitter observed across browsers (the
// paper's Figure 2 bands are up to ~30 bytes wide), so a band learned from
// few examples still generalizes; Train's pollution check rejects the
// margin if it swallows "other" traffic.
const bandMargin = 24

// IntervalBandTrainer learns the bands from labeled examples.
type IntervalBandTrainer struct {
	// PadEnvelope widens each band by the wire's envelope
	// (session.Wire.Envelope): the most bytes the shaping policy in force
	// can add to one record under TLS 1.3 padding, or to one write's
	// datagram burst under QUIC sizing. Shaped training examples cover
	// only the pads that happened to be drawn: an attack-time record or
	// burst may carry up to Envelope more than the largest observed
	// example — or up to Envelope less than the smallest — so both edges
	// widen.
	// The separability and pollution checks run on the widened bands, so
	// a policy wide enough to smear the classes together fails training
	// loudly instead of misclassifying quietly.
	PadEnvelope int
}

// Train implements Trainer.
func (t *IntervalBandTrainer) Train(examples []Example) (Classifier, error) {
	widen := bandMargin + t.PadEnvelope
	t1 := lengthsOf(examples, ClassType1)
	t2 := lengthsOf(examples, ClassType2)
	if len(t1) == 0 || len(t2) == 0 {
		return nil, fmt.Errorf("attack: interval-band training needs both type-1 and type-2 examples (have %d/%d)",
			len(t1), len(t2))
	}
	c := &IntervalBand{
		T1Lo: minInt(t1) - widen, T1Hi: maxInt(t1) + widen,
		T2Lo: minInt(t2) - widen, T2Hi: maxInt(t2) + widen,
	}
	if c.T1Hi >= c.T2Lo {
		return nil, fmt.Errorf("attack: type-1 band [%d,%d] overlaps type-2 band [%d,%d]; condition not separable",
			c.T1Lo, c.T1Hi, c.T2Lo, c.T2Hi)
	}
	// "Other" examples inside a learned band mean the side-channel is
	// polluted under this condition; refuse rather than misclassify.
	for _, e := range examples {
		if e.Class != ClassOther {
			continue
		}
		if (e.Length >= c.T1Lo && e.Length <= c.T1Hi) ||
			(e.Length >= c.T2Lo && e.Length <= c.T2Hi) {
			return nil, fmt.Errorf("attack: 'other' record of %d bytes falls inside a learned band", e.Length)
		}
	}
	return c, nil
}

// TrainerFor returns the interval-band trainer matched to the wire the
// profiled service speaks: the learned bands widen by the wire's
// envelope (session.Wire.Envelope), because training examples only cover
// the pads or dummy datagrams that happened to be drawn. Every entry
// point that trains from wire-aware sessions — the facade, the
// experiment drivers, wmattack — goes through here so the envelope rule
// lives in one place.
func TrainerFor(w session.Wire) Trainer {
	return &IntervalBandTrainer{PadEnvelope: w.Envelope()}
}

// --- Nearest-centroid classifier -------------------------------------------

// NearestCentroid classifies by distance to per-class mean lengths; it
// needs no band separation but degrades gracefully when classes smear.
type NearestCentroid struct {
	Centroids map[Class]float64
	// Spread is the average within-class deviation, scaling confidence.
	Spread float64
}

// Name implements Classifier.
func (c *NearestCentroid) Name() string { return "nearest-centroid" }

// Classify implements Classifier.
func (c *NearestCentroid) Classify(length int) (Class, float64) {
	best, bestD := ClassOther, math.MaxFloat64
	var secondD = math.MaxFloat64
	for cls, ctr := range c.Centroids {
		d := math.Abs(float64(length) - ctr)
		if d < bestD {
			second := bestD
			bestD, best = d, cls
			secondD = second
		} else if d < secondD {
			secondD = d
		}
	}
	spread := c.Spread
	if spread <= 0 {
		spread = 1
	}
	// Confidence from the margin between best and second-best distances.
	conf := (secondD - bestD) / (secondD + bestD + spread)
	if conf < 0.34 {
		conf = 0.34
	}
	if conf > 1 {
		conf = 1
	}
	return best, conf
}

// NearestCentroidTrainer learns per-class centroids.
type NearestCentroidTrainer struct{}

// Train implements Trainer.
func (NearestCentroidTrainer) Train(examples []Example) (Classifier, error) {
	sums := map[Class]float64{}
	counts := map[Class]int{}
	for _, e := range examples {
		sums[e.Class] += float64(e.Length)
		counts[e.Class]++
	}
	if counts[ClassType1] == 0 || counts[ClassType2] == 0 {
		return nil, fmt.Errorf("attack: centroid training needs type-1 and type-2 examples")
	}
	c := &NearestCentroid{Centroids: map[Class]float64{}}
	for cls, n := range counts {
		c.Centroids[cls] = sums[cls] / float64(n)
	}
	// Spread: mean absolute deviation across classes.
	var dev float64
	for _, e := range examples {
		dev += math.Abs(float64(e.Length) - c.Centroids[e.Class])
	}
	c.Spread = dev / float64(len(examples))
	return c, nil
}

// --- kNN classifier ---------------------------------------------------------

// KNN is a k-nearest-neighbours classifier over record lengths.
type KNN struct {
	K int
	// points are sorted by length for binary-search neighbourhoods.
	points []Example
}

// Name implements Classifier.
func (c *KNN) Name() string { return fmt.Sprintf("knn-%d", c.K) }

// Classify implements Classifier.
func (c *KNN) Classify(length int) (Class, float64) {
	k := c.K
	if k <= 0 {
		k = 5
	}
	if k > len(c.points) {
		k = len(c.points)
	}
	// Locate insertion point, then expand outward.
	i := sort.Search(len(c.points), func(i int) bool {
		return c.points[i].Length >= length
	})
	votes := map[Class]int{}
	lo, hi := i-1, i
	for n := 0; n < k; n++ {
		switch {
		case lo < 0 && hi >= len(c.points):
			n = k // both sides exhausted
		case lo < 0:
			votes[c.points[hi].Class]++
			hi++
		case hi >= len(c.points):
			votes[c.points[lo].Class]++
			lo--
		case length-c.points[lo].Length <= c.points[hi].Length-length:
			votes[c.points[lo].Class]++
			lo--
		default:
			votes[c.points[hi].Class]++
			hi++
		}
	}
	best, bestVotes, total := ClassOther, 0, 0
	for cls, v := range votes {
		total += v
		if v > bestVotes {
			best, bestVotes = cls, v
		}
	}
	if total == 0 {
		return ClassOther, 0.34
	}
	return best, float64(bestVotes) / float64(total)
}

// KNNTrainer builds a KNN classifier.
type KNNTrainer struct {
	K int
}

// Train implements Trainer.
func (t KNNTrainer) Train(examples []Example) (Classifier, error) {
	if len(examples) == 0 {
		return nil, fmt.Errorf("attack: knn training needs examples")
	}
	pts := append([]Example(nil), examples...)
	sort.Slice(pts, func(i, j int) bool { return pts[i].Length < pts[j].Length })
	k := t.K
	if k <= 0 {
		k = 5
	}
	return &KNN{K: k, points: pts}, nil
}

// --- helpers ----------------------------------------------------------------

func lengthsOf(examples []Example, cls Class) []int {
	var out []int
	for _, e := range examples {
		if e.Class == cls {
			out = append(out, e.Length)
		}
	}
	return out
}

func minInt(xs []int) int {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

func maxInt(xs []int) int {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

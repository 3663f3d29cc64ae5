package wire

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (splitmix64 core) used by every simulator module. The whole repository
// avoids math/rand so that a single uint64 seed reproduces an entire
// experiment byte-for-byte across Go versions.
type RNG struct {
	state uint64
}

// NewRNG returns an RNG seeded with seed. A zero seed is remapped to a
// fixed non-zero constant so the zero value is still usable.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &RNG{state: seed}
}

// Fork derives an independent child generator from the current state and a
// stream label, so sub-simulations do not perturb each other's sequences.
// Fork advances the parent, making the child depend on how many forks were
// taken before it; sequentially threaded code relies on that. Concurrent
// code must use Stream instead.
func (r *RNG) Fork(label uint64) *RNG {
	return NewRNG(r.Uint64() ^ (label*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb))
}

// Stream derives an independent child generator from the current state and
// a stream label WITHOUT advancing the parent. Distinct labels yield
// decorrelated streams, and the derivation is a pure function of (state,
// label), so tasks fanned out across a worker pool draw identical
// randomness regardless of scheduling or worker count. Concurrent Stream
// calls on one parent are safe as long as nothing advances it.
func (r *RNG) Stream(label uint64) *RNG {
	z := r.state + (label+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return NewRNG(z ^ (z >> 31))
}

// gamma is splitmix64's state increment: every draw adds it once.
const gamma = 0x9e3779b97f4a7c15

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += gamma
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Skip advances the generator past n draws in O(1), leaving it where n
// calls of Uint64, Intn or IntRange (one draw each) would.
func (r *RNG) Skip(n uint64) {
	r.state += n * gamma
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("wire: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// IntRange returns a uniform integer in [lo, hi]. It panics if hi < lo.
func (r *RNG) IntRange(lo, hi int) int {
	if hi < lo {
		panic("wire: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Normal returns a normally distributed value with the given mean and
// standard deviation (Box–Muller).
func (r *RNG) Normal(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// LogNormal returns exp(Normal(mu, sigma)), useful for heavy-tailed chunk
// size and latency models.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Exponential returns an exponentially distributed value with the given
// mean (inverse rate).
func (r *RNG) Exponential(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Choice returns an index in [0, len(weights)) drawn with the given
// relative weights. Zero or negative weights are treated as zero. If all
// weights are zero the first index is returned.
func (r *RNG) Choice(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return 0
	}
	x := r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		if x < w {
			return i
		}
		x -= w
	}
	return len(weights) - 1
}

// Shuffle permutes the first n indices via the supplied swap function
// (Fisher–Yates).
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}

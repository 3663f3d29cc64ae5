//go:build race

package dataset

// raceEnabled reports whether the race detector is on. Under it,
// sync.Pool drops a share of its Puts at random, so allocation bounds
// that count on pooled buffers do not hold.
const raceEnabled = true

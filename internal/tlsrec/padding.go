package tlsrec

import (
	"fmt"

	"repro/internal/wire"
)

// PaddingMode selects how a TLS 1.3 stack pads records.
type PaddingMode int

// Padding modes.
const (
	// PadNone sends every record at its natural length (the default; what
	// production stacks do today).
	PadNone PaddingMode = iota
	// PadToMultiple rounds every TLSInnerPlaintext up to a multiple of
	// the parameter, collapsing nearby plaintext lengths onto shared
	// buckets — the classic length-hiding countermeasure.
	PadToMultiple
	// PadRandom appends a per-record uniform random pad in [0, Param],
	// drawn from a seeded stream, smearing each plaintext length across
	// an interval instead of a point.
	PadRandom
)

// PaddingPolicy models RFC 8446 §5.4 record padding: zeros appended to
// the TLSInnerPlaintext (after the hidden content-type byte) before
// encryption. The eavesdropper sees only the inflated ciphertext length,
// which is exactly the side-channel this repository measures — a policy
// is therefore described entirely by its length arithmetic.
//
// The zero value is PadNone. Padding is a TLS 1.3 mechanism; 1.2 record
// synthesis ignores any policy.
type PaddingPolicy struct {
	// Mode selects the padding scheme.
	Mode PaddingMode
	// Param is the bucket multiple (PadToMultiple) or the maximum
	// per-record pad in bytes, inclusive (PadRandom). Ignored by PadNone.
	Param int
}

// PadToMultipleOf returns the policy that rounds every inner plaintext up
// to a multiple of n bytes.
func PadToMultipleOf(n int) PaddingPolicy {
	return PaddingPolicy{Mode: PadToMultiple, Param: n}
}

// PadRandomUpTo returns the policy that appends a uniform random pad of
// [0, n] bytes per record.
func PadRandomUpTo(n int) PaddingPolicy {
	return PaddingPolicy{Mode: PadRandom, Param: n}
}

// String renders the policy the way reports and wire labels spell it:
// "none", "pad-to-64", "pad-random-128".
func (p PaddingPolicy) String() string {
	switch p.Mode {
	case PadToMultiple:
		return fmt.Sprintf("pad-to-%d", p.Param)
	case PadRandom:
		return fmt.Sprintf("pad-random-%d", p.Param)
	default:
		return "none"
	}
}

// Envelope returns the maximum number of bytes the policy can add to any
// record — the band widening a padding-aware classifier trainer applies,
// since training examples only cover the pads that happened to be drawn.
func (p PaddingPolicy) Envelope() int {
	switch p.Mode {
	case PadToMultiple:
		if p.Param > 1 {
			return p.Param - 1
		}
	case PadRandom:
		if p.Param > 0 {
			return p.Param
		}
	}
	return 0
}

// PadBytes returns the pad for one record whose TLSInnerPlaintext
// (content plus the hidden type byte) is n bytes. rng is consulted only
// by PadRandom; passing nil there draws no pad, so deterministic callers
// must supply a seeded stream.
func (p PaddingPolicy) PadBytes(n int, rng *wire.RNG) int {
	switch p.Mode {
	case PadToMultiple:
		if p.Param > 1 {
			if rem := n % p.Param; rem != 0 {
				return p.Param - rem
			}
		}
	case PadRandom:
		if p.Param > 0 && rng != nil {
			return rng.IntRange(0, p.Param)
		}
	}
	return 0
}

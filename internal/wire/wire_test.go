package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"
)

func TestReaderSequence(t *testing.T) {
	w := NewWriter(32)
	w.U8(0xab)
	w.U16(0x1234)
	w.U32(0xdeadbeef)
	w.U64(0x0102030405060708)
	w.Write([]byte{9, 9, 9})

	r := NewReader(w.Bytes())
	if got := r.U8(); got != 0xab {
		t.Errorf("U8 = %#x, want 0xab", got)
	}
	if got := r.U16(); got != 0x1234 {
		t.Errorf("U16 = %#x, want 0x1234", got)
	}
	if got := r.U32(); got != 0xdeadbeef {
		t.Errorf("U32 = %#x, want 0xdeadbeef", got)
	}
	if got := r.U64(); got != 0x0102030405060708 {
		t.Errorf("U64 = %#x", got)
	}
	if got := r.Bytes(3); !bytes.Equal(got, []byte{9, 9, 9}) {
		t.Errorf("Bytes = %v", got)
	}
	if r.Err() != nil {
		t.Fatalf("unexpected error: %v", r.Err())
	}
	if r.Remaining() != 0 {
		t.Errorf("Remaining = %d, want 0", r.Remaining())
	}
}

func TestReaderShort(t *testing.T) {
	r := NewReader([]byte{1, 2})
	_ = r.U32()
	if r.Err() == nil {
		t.Fatal("expected short-buffer error")
	}
	// Subsequent reads must stay no-ops and keep the first error.
	first := r.Err()
	_ = r.U64()
	if r.Err() != first {
		t.Errorf("error changed after sticky failure")
	}
}

func TestReaderNegativeLength(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	if got := r.Bytes(-1); got != nil {
		t.Errorf("Bytes(-1) = %v, want nil", got)
	}
	if r.Err() == nil {
		t.Fatal("expected error for negative length")
	}
}

func TestReaderSkipRest(t *testing.T) {
	r := NewReader([]byte{1, 2, 3, 4, 5})
	r.Skip(2)
	if got := r.Rest(); !bytes.Equal(got, []byte{3, 4, 5}) {
		t.Errorf("Rest = %v", got)
	}
	if r.Remaining() != 0 {
		t.Errorf("Remaining after Rest = %d", r.Remaining())
	}
}

func TestWriterSetU16(t *testing.T) {
	w := NewWriter(8)
	w.U16(0) // placeholder
	w.Write([]byte{1, 2, 3, 4})
	w.SetU16(0, uint16(w.Len()))
	r := NewReader(w.Bytes())
	if got := r.U16(); got != 6 {
		t.Errorf("back-patched length = %d, want 6", got)
	}
}

func TestWriterZero(t *testing.T) {
	w := NewWriter(4)
	w.Zero(5)
	if w.Len() != 5 {
		t.Fatalf("Len = %d, want 5", w.Len())
	}
	for i, b := range w.Bytes() {
		if b != 0 {
			t.Errorf("byte %d = %d, want 0", i, b)
		}
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 worked example: 0x0001 0xf203 0xf4f5 0xf6f7 -> sum 0xddf2,
	// checksum = ^0xddf2 = 0x220d.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(data); got != 0x220d {
		t.Errorf("Checksum = %#04x, want 0x220d", got)
	}
}

func TestChecksumOddLength(t *testing.T) {
	// An odd trailing byte is padded with zero on the right.
	if got, want := Checksum([]byte{0xab}), ^uint16(0xab00); got != want {
		t.Errorf("Checksum odd = %#04x, want %#04x", got, want)
	}
}

func TestChecksumIncrementalMatchesOneShot(t *testing.T) {
	f := func(a, b []byte) bool {
		if len(a)%2 == 1 {
			// Incremental summation is only defined on 16-bit boundaries
			// between chunks; keep the first chunk even.
			a = a[:len(a)-1]
		}
		joined := append(append([]byte{}, a...), b...)
		one := Checksum(joined)
		two := FinishChecksum(AddChecksum(AddChecksum(0, a), b))
		return one == two
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// checksum16 is the plain RFC 1071 loop, one big-endian 16-bit word per
// step into a 32-bit sum: the oracle for the 8-byte AddChecksum kernel.
func checksum16(sum uint32, data []byte) uint32 {
	n := len(data)
	for i := 0; i+1 < n; i += 2 {
		sum += uint32(binary.BigEndian.Uint16(data[i:]))
	}
	if n%2 == 1 {
		sum += uint32(data[n-1]) << 8
	}
	return sum
}

// TestAddChecksumMatchesSixteenBitLoop differentially tests the 8-byte
// kernel against the 16-bit loop over random lengths 0–1600 (odd ones
// included), all-0xFF runs (maximal carries) and nonzero starting sums.
// Only finished checksums are compared: the two loops fold carries at
// different points, so their raw partial sums legitimately differ.
// Starting sums stay below 2^24, the range a pseudo-header leaves, so the
// oracle's 32-bit sum cannot wrap over 1600 bytes.
func TestAddChecksumMatchesSixteenBitLoop(t *testing.T) {
	check := func(start uint32, data []byte) {
		t.Helper()
		got := FinishChecksum(AddChecksum(start, data))
		want := FinishChecksum(checksum16(start, data))
		if got != want {
			t.Fatalf("start %#x, %d bytes: checksum %#04x, 16-bit loop %#04x", start, len(data), got, want)
		}
	}
	rng := NewRNG(1071)
	buf := make([]byte, 1600)
	for trial := 0; trial < 4000; trial++ {
		data := buf[:rng.Intn(len(buf)+1)]
		for i := range data {
			data[i] = byte(rng.Uint64())
		}
		start := uint32(0)
		if trial%2 == 1 {
			start = uint32(rng.Intn(1 << 24))
		}
		check(start, data)
	}
	ones := bytes.Repeat([]byte{0xff}, len(buf))
	for n := 0; n <= len(ones); n++ {
		for _, start := range []uint32{0, 1, 0xffff, 0xfffe, 1<<24 - 1} {
			check(start, ones[:n])
		}
	}
}

func TestChecksumVerifies(t *testing.T) {
	// Inserting the checksum into the data must make the raw sum 0xffff.
	data := []byte{0x45, 0x00, 0x00, 0x28, 0x1c, 0x46, 0x40, 0x00, 0x40, 0x06,
		0x00, 0x00, 0xc0, 0xa8, 0x00, 0x68, 0xc0, 0xa8, 0x00, 0x01}
	ck := Checksum(data)
	data[10] = byte(ck >> 8)
	data[11] = byte(ck)
	if got := Checksum(data); got != 0 {
		t.Errorf("checksum over self-checksummed data = %#04x, want 0", got)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("sequence diverged at step %d", i)
		}
	}
}

// FuzzRNGSkip holds Skip(n) followed by one draw to n+1 draws, the n
// taken as Intn and IntRange calls (one draw each), as the size-only
// message forms skip their token draws.
func FuzzRNGSkip(f *testing.F) {
	for _, n := range []uint32{0, 1, 35, 36, 1 << 20} {
		f.Add(uint64(42), n)
	}
	f.Add(uint64(0), uint32(7))
	f.Fuzz(func(t *testing.T, seed uint64, n uint32) {
		n %= 1 << 21
		drawn, skipped := NewRNG(seed), NewRNG(seed)
		for i := uint32(0); i < n; i++ {
			if i%2 == 0 {
				drawn.Intn(36)
			} else {
				drawn.IntRange(-7, 7)
			}
		}
		skipped.Skip(uint64(n))
		if a, b := drawn.Uint64(), skipped.Uint64(); a != b {
			t.Fatalf("seed %d: Skip(%d) then a draw gave %#x, %d draws then one gave %#x", seed, n, b, n, a)
		}
	})
}

func TestRNGZeroSeedUsable(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Error("zero-seeded RNG looks degenerate")
	}
}

func TestRNGForkIndependence(t *testing.T) {
	parent := NewRNG(7)
	c1 := parent.Fork(1)
	c2 := parent.Fork(2)
	same := 0
	for i := 0; i < 64; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("forked streams collide too often: %d/64", same)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGIntRange(t *testing.T) {
	r := NewRNG(5)
	seen := map[int]bool{}
	for i := 0; i < 500; i++ {
		v := r.IntRange(10, 12)
		if v < 10 || v > 12 {
			t.Fatalf("IntRange out of bounds: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 3 {
		t.Errorf("IntRange did not cover [10,12]: %v", seen)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 1000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(13)
	const n = 20000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Normal(10, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-10) > 0.1 {
		t.Errorf("Normal mean = %v, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.1 {
		t.Errorf("Normal stddev = %v, want ~2", math.Sqrt(variance))
	}
}

func TestRNGExponentialMean(t *testing.T) {
	r := NewRNG(17)
	const n = 20000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exponential(5)
	}
	if mean := sum / n; math.Abs(mean-5) > 0.25 {
		t.Errorf("Exponential mean = %v, want ~5", mean)
	}
}

func TestRNGChoiceWeights(t *testing.T) {
	r := NewRNG(19)
	counts := [3]int{}
	for i := 0; i < 30000; i++ {
		counts[r.Choice([]float64{1, 2, 1})]++
	}
	// Middle weight is twice the others: expect ~50% of draws.
	frac := float64(counts[1]) / 30000
	if math.Abs(frac-0.5) > 0.03 {
		t.Errorf("weight-2 option drawn %v of the time, want ~0.5", frac)
	}
}

func TestRNGChoiceDegenerate(t *testing.T) {
	r := NewRNG(23)
	if got := r.Choice([]float64{0, 0, 0}); got != 0 {
		t.Errorf("all-zero weights Choice = %d, want 0", got)
	}
	if got := r.Choice([]float64{-1, 0, 5}); got != 2 {
		t.Errorf("negative weights Choice = %d, want 2", got)
	}
}

func TestRNGShufflePermutes(t *testing.T) {
	r := NewRNG(29)
	s := []int{0, 1, 2, 3, 4, 5, 6, 7}
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	seen := map[int]bool{}
	for _, v := range s {
		seen[v] = true
	}
	if len(seen) != 8 {
		t.Errorf("shuffle lost elements: %v", s)
	}
}

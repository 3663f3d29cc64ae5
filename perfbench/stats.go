package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func mib(b float64) float64 { return b / (1 << 20) }

// readMetric reads one runtime/metrics counter or gauge as a float.
func readMetric(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	switch s[0].Value.Kind() {
	case metrics.KindUint64:
		return float64(s[0].Value.Uint64())
	case metrics.KindFloat64:
		return s[0].Value.Float64()
	}
	return 0
}

const (
	liveHeapMetric = "/gc/heap/live:bytes"
	allocsMetric   = "/gc/heap/allocs:bytes"
)

// heapWatch records the live heap after every garbage collection. The
// live-heap figure only changes when a cycle ends, so sampling it from a
// finalizer that re-arms itself each cycle sees every value it takes,
// without a polling goroutine.
type heapWatch struct {
	base    float64
	peak    atomic.Uint64
	stopped atomic.Bool
}

// sentinel is the object whose finalizer runs once per GC cycle. It holds
// a pointer so the allocator never batches it into a tiny block.
type sentinel struct {
	w   *heapWatch
	pad [2]uint64
}

// startHeapWatch collects garbage, takes the live heap as the baseline and
// starts sampling.
func startHeapWatch() *heapWatch {
	runtime.GC()
	w := &heapWatch{base: readMetric(liveHeapMetric)}
	w.peak.Store(uint64(w.base))
	w.arm()
	return w
}

func (w *heapWatch) arm() {
	s := &sentinel{w: w}
	runtime.SetFinalizer(s, func(s *sentinel) {
		if s.w.stopped.Load() {
			return
		}
		s.w.sample()
		s.w.arm()
	})
}

func (w *heapWatch) sample() {
	v := uint64(readMetric(liveHeapMetric))
	for {
		old := w.peak.Load()
		if v <= old || w.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// stop ends sampling and returns the peak live heap above the baseline,
// in bytes.
func (w *heapWatch) stop() float64 {
	w.sample()
	w.stopped.Store(true)
	return float64(w.peak.Load()) - w.base
}

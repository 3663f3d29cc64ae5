package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks the calling thread until t. nanosleep(2) wakes within
// tens of microseconds; the runtime timer behind time.Sleep rounds short
// sleeps up to about a millisecond, which would add that much lateness to
// every paced chunk.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// offHeap copies b into anonymous memory outside the Go heap, so that
// hundreds of megabytes of input do not set the collector's heap goal for
// code that on its own holds a few megabytes. freeOffHeap unmaps it.
func offHeap(b []byte) []byte {
	m, err := syscall.Mmap(-1, 0, len(b), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return b
	}
	copy(m, b)
	return m
}

func freeOffHeap(b []byte) {
	_ = syscall.Munmap(b) // fails harmlessly for a heap slice offHeap fell back to
}

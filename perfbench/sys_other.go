//go:build !linux

package main

import "time"

func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

func offHeap(b []byte) []byte { return b }

func freeOffHeap([]byte) {}

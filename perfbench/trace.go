package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval. A span around a single call has Calls 1
// and BusyNS equal to its length. Calls made once per packet or record
// are too many to keep one span each, so the benchmark folds a layer's
// calls within one request into one span: Start is the first call's
// start, End the last call's end, Calls the number of calls and BusyNS
// their summed durations.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Req    string `json:"req"` // request: the capture, chunk or point
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int64  `json:"calls"`
	BusyNS int64  `json:"busy_ns"`
}

// tracer keeps a run's spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) len() int { return len(t.spans) }

// open starts a span and returns its id.
func (t *tracer) open(name, req string, parent int) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: t.now(), Calls: 1})
	return id
}

// close ends the span id.
func (t *tracer) close(id int) {
	s := &t.spans[id-1]
	s.End = t.now()
	s.BusyNS = s.End - s.Start
}

// add records a finished single-call span.
func (t *tracer) add(name, req string, parent int, start, end int64) {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req,
		Start: start, End: end, Calls: 1, BusyNS: end - start})
}

// calls accumulates one layer's calls within a request.
type calls struct {
	name        string
	first, last int64
	n, busy     int64
}

// time runs fn as one call of the layer.
func (c *calls) time(t *tracer, fn func()) {
	s := t.now()
	fn()
	c.note(s, t.now())
}

func (c *calls) note(start, end int64) {
	if c.n == 0 {
		c.first = start
	}
	c.last = end
	c.n++
	c.busy += end - start
}

// flush turns the accumulated calls into one span under parent and
// resets the accumulator.
func (t *tracer) flush(c *calls, req string, parent int) {
	if c.n == 0 {
		return
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: c.name, Req: req,
		Start: c.first, End: c.last, Calls: c.n, BusyNS: c.busy})
	c.first, c.last, c.n, c.busy = 0, 0, 0, 0
}

// selfByName sums each span name's self time: its busy time minus the
// busy time of its child spans.
func (t *tracer) selfByName() map[string]time.Duration {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.BusyNS
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		out[s.Name] += time.Duration(s.BusyNS - child[s.ID])
	}
	return out
}

// stat sums the busy time and calls of every span with the given name.
func (t *tracer) stat(name string) (busy time.Duration, n int64) {
	for _, s := range t.spans {
		if s.Name == name {
			busy += time.Duration(s.BusyNS)
			n += s.Calls
		}
	}
	return busy, n
}

// writeFile writes the spans as JSON lines under dir and returns the path.
func (t *tracer) writeFile(dir, workload string, seed uint64) (string, error) {
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// Package spanuser exercises the spanown retention rules against the
// fixture stubs.
package spanuser

import (
	"time"

	"pcapio"
	"tcpreasm"
)

// holder retains byte slices.
type holder struct {
	buf  []byte
	all  [][]byte
	byID map[int][]byte
}

// use reads a span synchronously (always fine).
func use(b []byte) int { return len(b) }

// fieldStore retains spans in struct fields.
func (h *holder) fieldStore(rec pcapio.Record, c tcpreasm.Chunk) {
	h.buf = rec.Data // want `spanown: storing an arena span in a struct field`
	h.buf = c.Data   // want `spanown: storing an arena span in a struct field`
}

// aliasedStore retains through a local alias and a sub-slice.
func (h *holder) aliasedStore(rec pcapio.Record) {
	d := rec.Data
	h.buf = d[4:8]           // want `spanown: storing an arena span in a struct field`
	h.all = append(h.all, d) // want `spanown: storing an arena span in a struct field`
}

// containerStore retains through a map slot.
func (h *holder) containerStore(rec pcapio.Record) {
	h.byID[1] = rec.Data // want `spanown: storing an arena span in a container`
}

// copyStore copies first — sanctioned.
func (h *holder) copyStore(rec pcapio.Record) {
	h.buf = append([]byte(nil), rec.Data...)
	dup := make([]byte, len(rec.Data))
	copy(dup, rec.Data)
	h.buf = dup
}

// reassign launders taint by overwriting the alias.
func (h *holder) reassign(rec pcapio.Record) {
	d := rec.Data
	d = append([]byte(nil), d...)
	h.buf = d
}

// channelSend leaks a span to another goroutine's lifetime.
func channelSend(rec pcapio.Record, ch chan []byte) {
	ch <- rec.Data // want `spanown: sending an arena span over a channel`
	d := rec.Data[2:]
	ch <- d // want `spanown: sending an arena span over a channel`
	ch <- append([]byte(nil), rec.Data...)
}

// goCapture hands spans to goroutines.
func goCapture(rec pcapio.Record) {
	d := rec.Data
	go use(rec.Data) // want `spanown: goroutine receives an arena span`
	go func() {      // want `spanown: goroutine closure captures arena span "d"`
		use(d)
	}()
	safe := append([]byte(nil), d...)
	go use(safe)
}

// passThrough forwards spans as plain call arguments — fine, the callee
// is analyzed on its own.
func passThrough(rec pcapio.Record) int {
	return use(rec.Data)
}

// storingConsumer is a stream consumer that keeps the bytes it is loaned.
type storingConsumer struct{ last []byte }

// Feed retains the loan past the call.
func (c *storingConsumer) Feed(_ time.Time, data []byte) {
	c.last = data[1:] // want `spanown: storing an arena span in a struct field`
}

// copyingConsumer is a stream consumer that copies what it keeps.
type copyingConsumer struct{ last []byte }

// Feed copies the loan before keeping it.
func (c *copyingConsumer) Feed(_ time.Time, data []byte) {
	c.last = append(c.last[:0], data...)
}

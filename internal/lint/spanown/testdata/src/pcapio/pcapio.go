// Package pcapio is a spanown fixture stub: the analyzer matches span
// sources by (package path suffix, type, field), so these shapes mirror
// the real repro/internal/pcapio surface.
package pcapio

// Record is one captured frame; Data sub-slices the reader's arena.
type Record struct {
	// Data is the arena loan.
	Data []byte
}

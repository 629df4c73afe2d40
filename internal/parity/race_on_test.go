//go:build race

package parity_test

// The race detector slows the GF(2^8) kernel about twentyfold, so
// TestFixedMemory makes its point on a smaller file; and under it sync.Pool
// drops a quarter of all Puts at random, so two runs can differ by a whole slab
// and only the absolute bound is checked.
const (
	bigFileMiB = 8
	allocSlack = 2 << 20
)

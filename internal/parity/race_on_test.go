//go:build race

package parity_test

// Under the race detector sync.Pool drops a quarter of all Puts at random, so
// two runs can differ by a whole slab and only TestFixedMemory's absolute
// bound is checked.
const allocSlack = 2 << 20

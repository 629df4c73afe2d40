//go:build !race

package parity_test

const (
	bigFileMiB = 32
	allocSlack = 128 << 10
)

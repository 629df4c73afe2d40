//go:build !race

package parity_test

const allocSlack = 128 << 10

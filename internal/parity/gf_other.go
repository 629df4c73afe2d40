//go:build !amd64

package parity

// gfMulSlice accumulates c*in into out (out[i] ^= c*in[i]) — the inner loop
// of both encoding and reconstruction. Off amd64 it is the portable kernel.
func gfMulSlice(c byte, in, out []byte) { gfMulSliceGeneric(c, in, out) }

package parity

func init() {
	if hasAVX2 {
		mulKernels = append(mulKernels, mulKernel{"avx2", gfMulSlice})
	}
}

package parity

// On an AVX2 CPU the stripe loop's multiply-accumulate runs 32 bytes per
// step in gf_amd64.s. A product splits over the nibbles of its input,
// c·x = c·(x&15) ^ c·(x&0xf0), so two 16-entry tables per coefficient stand
// in for its 256-entry row of gfMulTable, and one VPSHUFB looks up 32
// entries of a table at once. Without AVX2 the portable kernel runs.

var (
	hasAVX2 = cpuHasAVX2()

	// gfNibbles[c][0][x] = c·x and gfNibbles[c][1][x] = c·(x<<4): 8 KiB.
	gfNibbles [256][2][16]byte
)

func init() {
	for c := range gfNibbles {
		for x := 0; x < 16; x++ {
			gfNibbles[c][0][x] = gfMulTable[c][x]
			gfNibbles[c][1][x] = gfMulTable[c][x<<4]
		}
	}
}

// gfMulSlice accumulates c*in into out (out[i] ^= c*in[i]) — the inner loop
// of both encoding and reconstruction. The SIMD kernel takes every whole 32
// bytes, the portable one the ragged tail.
func gfMulSlice(c byte, in, out []byte) {
	n := 0
	if hasAVX2 && c != 0 {
		n = len(in) &^ 31
		gfMulAVX2(&gfNibbles[c], in[:n], out[:n:n])
	}
	gfMulSliceGeneric(c, in[n:], out[n:])
}

// gfMulAVX2 does out[i] ^= c·in[i] over len(in)/32 whole 32-byte steps, c
// given by its nibble tables; out is at least as long as in.
//
//go:noescape
func gfMulAVX2(tab *[2][16]byte, in, out []byte)

// cpuHasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across a context switch.
func cpuHasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0 := xgetbv(); xcr0&6 != 6 { // XMM and YMM state enabled
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low half of XCR0.
func xgetbv() (eax uint32)

#include "textflag.h"

// func gfMulAVX2(tab *[2][16]byte, in, out []byte)
//
// Per 32 bytes of in: split each byte into its low and high nibble, look
// both up with VPSHUFB in the coefficient's two 16-byte tables (broadcast
// to both lanes), XOR the two products into out.
TEXT ·gfMulAVX2(SB), NOSPLIT, $0-56
	MOVQ tab+0(FP), AX
	MOVQ in_base+8(FP), SI
	MOVQ in_len+16(FP), CX
	MOVQ out_base+32(FP), DI
	SHRQ $5, CX
	JZ   done

	VBROADCASTI128 (AX), Y0   // products of the low nibble
	VBROADCASTI128 16(AX), Y1 // products of the high nibble
	MOVQ $0x0f, DX
	MOVQ DX, X2
	VPBROADCASTB X2, Y2       // 0x0f in every byte

loop:
	VMOVDQU (SI), Y3
	VPSRLQ  $4, Y3, Y4
	VPAND   Y2, Y3, Y3
	VPAND   Y2, Y4, Y4
	VPSHUFB Y3, Y0, Y3
	VPSHUFB Y4, Y1, Y4
	VPXOR   Y3, Y4, Y3
	VPXOR   (DI), Y3, Y3
	VMOVDQU Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     loop
	VZEROUPPER

done:
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET

//go:build amd64 && !purego

#include "textflag.h"

// expBlocks repeats the FMA path of math.Exp ($GOROOT/src/math/exp_amd64.s,
// Shibata's method from "Efficient evaluation methods of elementary
// functions suitable for SIMD computation", ISC 2010) on four lanes at once:
// the same constants, written with the same literals, and the same
// operations in the same order, so every in-range lane rounds exactly as the
// scalar code does. Lanes whose reduced exponent e leaves [−1022, 1023] take
// the scalar code's special-case branches (NaN, ±Inf, overflow, subnormal
// and zero results); a block holding one is left to the caller.

#define LOG2E 1.4426950408889634073599246810018920
#define LN2U 0.69314718055966295651160180568695068359375
#define LN2L 0.28235290563031577122588448175013436025525412068e-12

#define BCAST(off, v) \
	DATA expconst<>+(off+0)(SB)/8, v \
	DATA expconst<>+(off+8)(SB)/8, v \
	DATA expconst<>+(off+16)(SB)/8, v \
	DATA expconst<>+(off+24)(SB)/8, v

BCAST(0, $LOG2E)
BCAST(32, $LN2U)
BCAST(64, $LN2L)
BCAST(96, $0.0625)
BCAST(128, $2.4801587301587301587e-5)
BCAST(160, $1.9841269841269841270e-4)
BCAST(192, $1.3888888888888888889e-3)
BCAST(224, $8.3333333333333333333e-3)
BCAST(256, $4.1666666666666666667e-2)
BCAST(288, $1.6666666666666666667e-1)
BCAST(320, $0.5)
BCAST(352, $1.0)
BCAST(384, $2.0)
// Four int32 lanes each: the exponent bias, and the bounds 2046 and 1 of a
// biased exponent e + 0x3FF in the normal range.
DATA expconst<>+416(SB)/8, $0x000003FF000003FF
DATA expconst<>+424(SB)/8, $0x000003FF000003FF
DATA expconst<>+432(SB)/8, $0x000007FE000007FE
DATA expconst<>+440(SB)/8, $0x000007FE000007FE
DATA expconst<>+448(SB)/8, $0x0000000100000001
DATA expconst<>+456(SB)/8, $0x0000000100000001
GLOBL expconst<>(SB), RODATA|NOPTR, $464

// func expBlocks(dst, src *float64, n int) int
TEXT ·expBlocks(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX

loop:
	CMPQ AX, CX
	JGE  done
	VMOVUPD (SI)(AX*8), Y0

	// e = round(x·log2(e)) under MXCSR rounding, as CVTSD2SL.
	VMULPD     expconst<>+0(SB), Y0, Y1
	VCVTPD2DQY Y1, X2

	// Biased exponent b = e + 0x3FF; stop unless every lane is in [1, 2046].
	VPADDD   expconst<>+416(SB), X2, X3
	VPCMPGTD expconst<>+432(SB), X3, X4
	VMOVDQU  expconst<>+448(SB), X5
	VPCMPGTD X3, X5, X5
	VPOR     X4, X5, X4
	VPTEST   X4, X4
	JNE      done

	// x − e·LN2U − e·LN2L, each step fused, then reduce by 1/16.
	VCVTDQ2PD    X2, Y1
	VFNMADD231PD expconst<>+32(SB), Y1, Y0
	VFNMADD231PD expconst<>+64(SB), Y1, Y0
	VMULPD       expconst<>+96(SB), Y0, Y0

	// Taylor series, then three rounds of r·(r+2) and a fused r·(r+2)+1.
	VMOVUPD     expconst<>+128(SB), Y1
	VFMADD213PD expconst<>+160(SB), Y0, Y1
	VFMADD213PD expconst<>+192(SB), Y0, Y1
	VFMADD213PD expconst<>+224(SB), Y0, Y1
	VFMADD213PD expconst<>+256(SB), Y0, Y1
	VFMADD213PD expconst<>+288(SB), Y0, Y1
	VFMADD213PD expconst<>+320(SB), Y0, Y1
	VFMADD213PD expconst<>+352(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      expconst<>+384(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      expconst<>+384(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      expconst<>+384(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      expconst<>+384(SB), Y0, Y1
	VFMADD213PD expconst<>+352(SB), Y1, Y0

	// × 2^e: b sign-extended to 64 bits and shifted into the exponent field.
	VPMOVSXDQ X3, Y2
	VPSLLQ    $52, Y2, Y2
	VMULPD    Y2, Y0, Y0
	VMOVUPD   Y0, (DI)(AX*8)
	ADDQ      $4, AX
	JMP       loop

done:
	VZEROUPPER
	MOVQ AX, ret+24(FP)
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

//go:build amd64 && !purego

#include "textflag.h"

// The AVX2 kernels of kernels.go's Go loops. Every lane takes the loop's
// operations on the same operands in the same order: a product rounded by
// VMULPD, then VSUBPD or VADDPD, never a fused multiply-add, and VDIVPD for
// a division. Each kernel works in 16-lane blocks (four YMM registers), then
// 4-lane chunks, then a scalar tail, and ends with VZEROUPPER.

// func axpyVec(alpha float64, x, y []float64)
TEXT ·axpyVec(SB), NOSPLIT, $0-56
	VBROADCASTSD alpha+0(FP), Y9
	MOVQ         x_base+8(FP), SI
	MOVQ         x_len+16(FP), CX
	MOVQ         y_base+32(FP), DI
	XORQ         AX, AX

axpy16:
	LEAQ    16(AX), DX
	CMPQ    DX, CX
	JGT     axpy4
	VMULPD  (SI)(AX*8), Y9, Y0
	VMULPD  32(SI)(AX*8), Y9, Y1
	VMULPD  64(SI)(AX*8), Y9, Y2
	VMULPD  96(SI)(AX*8), Y9, Y3
	VADDPD  (DI)(AX*8), Y0, Y0
	VADDPD  32(DI)(AX*8), Y1, Y1
	VADDPD  64(DI)(AX*8), Y2, Y2
	VADDPD  96(DI)(AX*8), Y3, Y3
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	VMOVUPD Y2, 64(DI)(AX*8)
	VMOVUPD Y3, 96(DI)(AX*8)
	MOVQ    DX, AX
	JMP     axpy16

axpy4:
	LEAQ    4(AX), DX
	CMPQ    DX, CX
	JGT     axpy1
	VMULPD  (SI)(AX*8), Y9, Y0
	VADDPD  (DI)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	MOVQ    DX, AX
	JMP     axpy4

axpy1:
	CMPQ   AX, CX
	JGE    axpydone
	VMULSD (SI)(AX*8), X9, X0
	VADDSD (DI)(AX*8), X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX
	JMP    axpy1

axpydone:
	VZEROUPPER
	RET

// func addSquaresVec(dst, x []float64)
TEXT ·addSquaresVec(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	XORQ AX, AX

sq16:
	LEAQ    16(AX), DX
	CMPQ    DX, CX
	JGT     sq4
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD 32(SI)(AX*8), Y1
	VMOVUPD 64(SI)(AX*8), Y2
	VMOVUPD 96(SI)(AX*8), Y3
	VMULPD  Y0, Y0, Y0
	VMULPD  Y1, Y1, Y1
	VMULPD  Y2, Y2, Y2
	VMULPD  Y3, Y3, Y3
	VADDPD  (DI)(AX*8), Y0, Y0
	VADDPD  32(DI)(AX*8), Y1, Y1
	VADDPD  64(DI)(AX*8), Y2, Y2
	VADDPD  96(DI)(AX*8), Y3, Y3
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	VMOVUPD Y2, 64(DI)(AX*8)
	VMOVUPD Y3, 96(DI)(AX*8)
	MOVQ    DX, AX
	JMP     sq16

sq4:
	LEAQ    4(AX), DX
	CMPQ    DX, CX
	JGT     sq1
	VMOVUPD (SI)(AX*8), Y0
	VMULPD  Y0, Y0, Y0
	VADDPD  (DI)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	MOVQ    DX, AX
	JMP     sq4

sq1:
	CMPQ   AX, CX
	JGE    sqdone
	VMOVSD (SI)(AX*8), X0
	VMULSD X0, X0, X0
	VADDSD (DI)(AX*8), X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX
	JMP    sq1

sqdone:
	VZEROUPPER
	RET

// func rowSolveVec(dst, src, c []float64, cs int, x []float64, xs, m int, d float64)
//
// dst[s] = (src[s] − c[0]·x[s] − c[cs]·x[xs+s] − …) / d over m terms. Each
// block of lanes stays in registers across the whole k loop: BX walks c by
// cs, DX walks x by xs from the block's first lane, R13 counts the terms.
TEXT ·rowSolveVec(SB), NOSPLIT, $0-128
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         src_base+24(FP), SI
	MOVQ         c_base+48(FP), R8
	MOVQ         cs+72(FP), R9
	SHLQ         $3, R9
	MOVQ         x_base+80(FP), R10
	MOVQ         xs+104(FP), R11
	SHLQ         $3, R11
	MOVQ         m+112(FP), R12
	VBROADCASTSD d+120(FP), Y9
	XORQ         AX, AX

row16:
	LEAQ    16(AX), DX
	CMPQ    DX, CX
	JGT     row4
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD 32(SI)(AX*8), Y1
	VMOVUPD 64(SI)(AX*8), Y2
	VMOVUPD 96(SI)(AX*8), Y3
	MOVQ    R8, BX
	LEAQ    (R10)(AX*8), DX
	MOVQ    R12, R13
	TESTQ   R13, R13
	JZ      div16

terms16:
	VBROADCASTSD (BX), Y4
	VMULPD       (DX), Y4, Y5
	VMULPD       32(DX), Y4, Y6
	VMULPD       64(DX), Y4, Y7
	VMULPD       96(DX), Y4, Y8
	VSUBPD       Y5, Y0, Y0
	VSUBPD       Y6, Y1, Y1
	VSUBPD       Y7, Y2, Y2
	VSUBPD       Y8, Y3, Y3
	ADDQ         R9, BX
	ADDQ         R11, DX
	DECQ         R13
	JNZ          terms16

div16:
	VDIVPD  Y9, Y0, Y0
	VDIVPD  Y9, Y1, Y1
	VDIVPD  Y9, Y2, Y2
	VDIVPD  Y9, Y3, Y3
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	VMOVUPD Y2, 64(DI)(AX*8)
	VMOVUPD Y3, 96(DI)(AX*8)
	ADDQ    $16, AX
	JMP     row16

row4:
	// The remaining whole chunks of four lanes, up to three, share one k
	// loop, as do the remaining single lanes: each stage waits on its
	// subtraction latency once per term rather than once per chunk or lane.
	LEAQ 12(AX), DX
	CMPQ DX, CX
	JLE  chunks3
	LEAQ 8(AX), DX
	CMPQ DX, CX
	JLE  chunks2
	LEAQ 4(AX), DX
	CMPQ DX, CX
	JGT  row1

	MOVQ    R8, BX
	LEAQ    (R10)(AX*8), DX
	MOVQ    R12, R13
	VMOVUPD (SI)(AX*8), Y0
	TESTQ   R13, R13
	JZ      div4

terms4:
	VBROADCASTSD (BX), Y4
	VMULPD       (DX), Y4, Y5
	VSUBPD       Y5, Y0, Y0
	ADDQ         R9, BX
	ADDQ         R11, DX
	DECQ         R13
	JNZ          terms4

div4:
	VDIVPD  Y9, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     row1

chunks2:
	MOVQ    R8, BX
	LEAQ    (R10)(AX*8), DX
	MOVQ    R12, R13
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD 32(SI)(AX*8), Y1
	TESTQ   R13, R13
	JZ      div8

terms8:
	VBROADCASTSD (BX), Y4
	VMULPD       (DX), Y4, Y5
	VMULPD       32(DX), Y4, Y6
	VSUBPD       Y5, Y0, Y0
	VSUBPD       Y6, Y1, Y1
	ADDQ         R9, BX
	ADDQ         R11, DX
	DECQ         R13
	JNZ          terms8

div8:
	VDIVPD  Y9, Y0, Y0
	VDIVPD  Y9, Y1, Y1
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	ADDQ    $8, AX
	JMP     row1

chunks3:
	MOVQ    R8, BX
	LEAQ    (R10)(AX*8), DX
	MOVQ    R12, R13
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD 32(SI)(AX*8), Y1
	VMOVUPD 64(SI)(AX*8), Y2
	TESTQ   R13, R13
	JZ      div12

terms12:
	VBROADCASTSD (BX), Y4
	VMULPD       (DX), Y4, Y5
	VMULPD       32(DX), Y4, Y6
	VMULPD       64(DX), Y4, Y7
	VSUBPD       Y5, Y0, Y0
	VSUBPD       Y6, Y1, Y1
	VSUBPD       Y7, Y2, Y2
	ADDQ         R9, BX
	ADDQ         R11, DX
	DECQ         R13
	JNZ          terms12

div12:
	VDIVPD  Y9, Y0, Y0
	VDIVPD  Y9, Y1, Y1
	VDIVPD  Y9, Y2, Y2
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	VMOVUPD Y2, 64(DI)(AX*8)
	ADDQ    $12, AX

row1:
	LEAQ 3(AX), DX
	CMPQ DX, CX
	JLE  lanes3
	LEAQ 2(AX), DX
	CMPQ DX, CX
	JLE  lanes2
	CMPQ AX, CX
	JGE  rowdone

	MOVQ   R8, BX
	LEAQ   (R10)(AX*8), DX
	MOVQ   R12, R13
	VMOVSD (SI)(AX*8), X0
	TESTQ  R13, R13
	JZ     div1

terms1:
	VMOVSD (BX), X4
	VMULSD (DX), X4, X5
	VSUBSD X5, X0, X0
	ADDQ   R9, BX
	ADDQ   R11, DX
	DECQ   R13
	JNZ    terms1

div1:
	VDIVSD X9, X0, X0
	VMOVSD X0, (DI)(AX*8)
	JMP    rowdone

lanes2:
	MOVQ   R8, BX
	LEAQ   (R10)(AX*8), DX
	MOVQ   R12, R13
	VMOVSD (SI)(AX*8), X0
	VMOVSD 8(SI)(AX*8), X1
	TESTQ  R13, R13
	JZ     div2

terms2:
	VMOVSD (BX), X4
	VMULSD (DX), X4, X5
	VMULSD 8(DX), X4, X6
	VSUBSD X5, X0, X0
	VSUBSD X6, X1, X1
	ADDQ   R9, BX
	ADDQ   R11, DX
	DECQ   R13
	JNZ    terms2

div2:
	VDIVSD X9, X0, X0
	VDIVSD X9, X1, X1
	VMOVSD X0, (DI)(AX*8)
	VMOVSD X1, 8(DI)(AX*8)
	JMP    rowdone

lanes3:
	MOVQ   R8, BX
	LEAQ   (R10)(AX*8), DX
	MOVQ   R12, R13
	VMOVSD (SI)(AX*8), X0
	VMOVSD 8(SI)(AX*8), X1
	VMOVSD 16(SI)(AX*8), X2
	TESTQ  R13, R13
	JZ     div3

terms3:
	VMOVSD (BX), X4
	VMULSD (DX), X4, X5
	VMULSD 8(DX), X4, X6
	VMULSD 16(DX), X4, X7
	VSUBSD X5, X0, X0
	VSUBSD X6, X1, X1
	VSUBSD X7, X2, X2
	ADDQ   R9, BX
	ADDQ   R11, DX
	DECQ   R13
	JNZ    terms3

div3:
	VDIVSD X9, X0, X0
	VDIVSD X9, X1, X1
	VDIVSD X9, X2, X2
	VMOVSD X0, (DI)(AX*8)
	VMOVSD X1, 8(DI)(AX*8)
	VMOVSD X2, 16(DI)(AX*8)

rowdone:
	VZEROUPPER
	RET

// func addScaledRowsVec(dst, c, x []float64, xs int)
//
// dst[s] += c[0]·x[s], then += c[1]·x[xs+s], … over m = len(c) terms, the
// stages of rowSolveVec without the division: each block of lanes is loaded
// from dst, stays in registers across the whole k loop (BX walks c, DX walks
// x by xs from the block's first lane, R13 counts the terms) and is stored
// back once.
TEXT ·addScaledRowsVec(SB), NOSPLIT, $0-80
	MOVQ  dst_base+0(FP), DI
	MOVQ  dst_len+8(FP), CX
	MOVQ  c_base+24(FP), R8
	MOVQ  c_len+32(FP), R12
	MOVQ  x_base+48(FP), R10
	MOVQ  xs+72(FP), R11
	SHLQ  $3, R11
	XORQ  AX, AX
	TESTQ R12, R12
	JZ    accdone

acc16:
	LEAQ    16(AX), DX
	CMPQ    DX, CX
	JGT     acc4
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD 32(DI)(AX*8), Y1
	VMOVUPD 64(DI)(AX*8), Y2
	VMOVUPD 96(DI)(AX*8), Y3
	MOVQ    R8, BX
	LEAQ    (R10)(AX*8), DX
	MOVQ    R12, R13

accterms16:
	VBROADCASTSD (BX), Y4
	VMULPD       (DX), Y4, Y5
	VMULPD       32(DX), Y4, Y6
	VMULPD       64(DX), Y4, Y7
	VMULPD       96(DX), Y4, Y8
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	VADDPD       Y8, Y3, Y3
	ADDQ         $8, BX
	ADDQ         R11, DX
	DECQ         R13
	JNZ          accterms16

	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	VMOVUPD Y2, 64(DI)(AX*8)
	VMOVUPD Y3, 96(DI)(AX*8)
	ADDQ    $16, AX
	JMP     acc16

acc4:
	// As in rowSolveVec, the remaining whole chunks of four lanes share one
	// k loop, as do the remaining single lanes.
	LEAQ 12(AX), DX
	CMPQ DX, CX
	JLE  accchunks3
	LEAQ 8(AX), DX
	CMPQ DX, CX
	JLE  accchunks2
	LEAQ 4(AX), DX
	CMPQ DX, CX
	JGT  acc1

	MOVQ    R8, BX
	LEAQ    (R10)(AX*8), DX
	MOVQ    R12, R13
	VMOVUPD (DI)(AX*8), Y0

accterms4:
	VBROADCASTSD (BX), Y4
	VMULPD       (DX), Y4, Y5
	VADDPD       Y5, Y0, Y0
	ADDQ         $8, BX
	ADDQ         R11, DX
	DECQ         R13
	JNZ          accterms4

	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     acc1

accchunks2:
	MOVQ    R8, BX
	LEAQ    (R10)(AX*8), DX
	MOVQ    R12, R13
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD 32(DI)(AX*8), Y1

accterms8:
	VBROADCASTSD (BX), Y4
	VMULPD       (DX), Y4, Y5
	VMULPD       32(DX), Y4, Y6
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1
	ADDQ         $8, BX
	ADDQ         R11, DX
	DECQ         R13
	JNZ          accterms8

	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	ADDQ    $8, AX
	JMP     acc1

accchunks3:
	MOVQ    R8, BX
	LEAQ    (R10)(AX*8), DX
	MOVQ    R12, R13
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD 32(DI)(AX*8), Y1
	VMOVUPD 64(DI)(AX*8), Y2

accterms12:
	VBROADCASTSD (BX), Y4
	VMULPD       (DX), Y4, Y5
	VMULPD       32(DX), Y4, Y6
	VMULPD       64(DX), Y4, Y7
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	ADDQ         $8, BX
	ADDQ         R11, DX
	DECQ         R13
	JNZ          accterms12

	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	VMOVUPD Y2, 64(DI)(AX*8)
	ADDQ    $12, AX

acc1:
	LEAQ 3(AX), DX
	CMPQ DX, CX
	JLE  acclanes3
	LEAQ 2(AX), DX
	CMPQ DX, CX
	JLE  acclanes2
	CMPQ AX, CX
	JGE  accdone

	MOVQ   R8, BX
	LEAQ   (R10)(AX*8), DX
	MOVQ   R12, R13
	VMOVSD (DI)(AX*8), X0

accterms1:
	VMOVSD (BX), X4
	VMULSD (DX), X4, X5
	VADDSD X5, X0, X0
	ADDQ   $8, BX
	ADDQ   R11, DX
	DECQ   R13
	JNZ    accterms1

	VMOVSD X0, (DI)(AX*8)
	JMP    accdone

acclanes2:
	MOVQ   R8, BX
	LEAQ   (R10)(AX*8), DX
	MOVQ   R12, R13
	VMOVSD (DI)(AX*8), X0
	VMOVSD 8(DI)(AX*8), X1

accterms2:
	VMOVSD (BX), X4
	VMULSD (DX), X4, X5
	VMULSD 8(DX), X4, X6
	VADDSD X5, X0, X0
	VADDSD X6, X1, X1
	ADDQ   $8, BX
	ADDQ   R11, DX
	DECQ   R13
	JNZ    accterms2

	VMOVSD X0, (DI)(AX*8)
	VMOVSD X1, 8(DI)(AX*8)
	JMP    accdone

acclanes3:
	MOVQ   R8, BX
	LEAQ   (R10)(AX*8), DX
	MOVQ   R12, R13
	VMOVSD (DI)(AX*8), X0
	VMOVSD 8(DI)(AX*8), X1
	VMOVSD 16(DI)(AX*8), X2

accterms3:
	VMOVSD (BX), X4
	VMULSD (DX), X4, X5
	VMULSD 8(DX), X4, X6
	VMULSD 16(DX), X4, X7
	VADDSD X5, X0, X0
	VADDSD X6, X1, X1
	VADDSD X7, X2, X2
	ADDQ   $8, BX
	ADDQ   R11, DX
	DECQ   R13
	JNZ    accterms3

	VMOVSD X0, (DI)(AX*8)
	VMOVSD X1, 8(DI)(AX*8)
	VMOVSD X2, 16(DI)(AX*8)

accdone:
	VZEROUPPER
	RET

//go:build amd64

#include "textflag.h"

// func cpuidex(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func dot4x2fma(a0, a1, a2, a3, b0, b1 *float64, n int, out *[8]float64)
//
// Eight dot products in one sweep: out[2i+j] = Σₖ aᵢ[k]·bⱼ[k]. The main
// loop processes four k per iteration with eight YMM accumulators (Y0–Y7)
// and six operand loads (Y8–Y13) — the vector version of the 4×2 micro-tile
// the portable kernel uses. Remainder elements are accumulated with scalar
// FMAs after the horizontal reduction.
TEXT ·dot4x2fma(SB), NOSPLIT, $0-64
	MOVQ a0+0(FP), R8
	MOVQ a1+8(FP), R9
	MOVQ a2+16(FP), R10
	MOVQ a3+24(FP), R11
	MOVQ b0+32(FP), R12
	MOVQ b1+40(FP), R13
	MOVQ n+48(FP), CX
	MOVQ out+56(FP), DI

	VXORPD Y0, Y0, Y0 // Σ a0·b0
	VXORPD Y1, Y1, Y1 // Σ a0·b1
	VXORPD Y2, Y2, Y2 // Σ a1·b0
	VXORPD Y3, Y3, Y3 // Σ a1·b1
	VXORPD Y4, Y4, Y4 // Σ a2·b0
	VXORPD Y5, Y5, Y5 // Σ a2·b1
	VXORPD Y6, Y6, Y6 // Σ a3·b0
	VXORPD Y7, Y7, Y7 // Σ a3·b1

	MOVQ CX, BX
	SHRQ $2, BX
	JZ   reduce

vloop:
	VMOVUPD (R12), Y8  // b0[k:k+4]
	VMOVUPD (R13), Y9  // b1[k:k+4]
	VMOVUPD (R8), Y10  // a0[k:k+4]
	VMOVUPD (R9), Y11  // a1[k:k+4]
	VMOVUPD (R10), Y12 // a2[k:k+4]
	VMOVUPD (R11), Y13 // a3[k:k+4]
	VFMADD231PD Y8, Y10, Y0
	VFMADD231PD Y9, Y10, Y1
	VFMADD231PD Y8, Y11, Y2
	VFMADD231PD Y9, Y11, Y3
	VFMADD231PD Y8, Y12, Y4
	VFMADD231PD Y9, Y12, Y5
	VFMADD231PD Y8, Y13, Y6
	VFMADD231PD Y9, Y13, Y7
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	ADDQ $32, R12
	ADDQ $32, R13
	DECQ BX
	JNZ  vloop

reduce:
	// Fold each 4-lane accumulator into its low scalar lane.
	VEXTRACTF128 $1, Y0, X8
	VADDPD       X8, X0, X0
	VHADDPD      X0, X0, X0
	VEXTRACTF128 $1, Y1, X8
	VADDPD       X8, X1, X1
	VHADDPD      X1, X1, X1
	VEXTRACTF128 $1, Y2, X8
	VADDPD       X8, X2, X2
	VHADDPD      X2, X2, X2
	VEXTRACTF128 $1, Y3, X8
	VADDPD       X8, X3, X3
	VHADDPD      X3, X3, X3
	VEXTRACTF128 $1, Y4, X8
	VADDPD       X8, X4, X4
	VHADDPD      X4, X4, X4
	VEXTRACTF128 $1, Y5, X8
	VADDPD       X8, X5, X5
	VHADDPD      X5, X5, X5
	VEXTRACTF128 $1, Y6, X8
	VADDPD       X8, X6, X6
	VHADDPD      X6, X6, X6
	VEXTRACTF128 $1, Y7, X8
	VADDPD       X8, X7, X7
	VHADDPD      X7, X7, X7

	ANDQ $3, CX
	JZ   store

sloop:
	VMOVSD (R12), X8
	VMOVSD (R13), X9
	VMOVSD (R8), X10
	VMOVSD (R9), X11
	VMOVSD (R10), X12
	VMOVSD (R11), X13
	VFMADD231SD X8, X10, X0
	VFMADD231SD X9, X10, X1
	VFMADD231SD X8, X11, X2
	VFMADD231SD X9, X11, X3
	VFMADD231SD X8, X12, X4
	VFMADD231SD X9, X12, X5
	VFMADD231SD X8, X13, X6
	VFMADD231SD X9, X13, X7
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $8, R10
	ADDQ $8, R11
	ADDQ $8, R12
	ADDQ $8, R13
	DECQ CX
	JNZ  sloop

store:
	VMOVSD X0, (DI)
	VMOVSD X1, 8(DI)
	VMOVSD X2, 16(DI)
	VMOVSD X3, 24(DI)
	VMOVSD X4, 32(DI)
	VMOVSD X5, 40(DI)
	VMOVSD X6, 48(DI)
	VMOVSD X7, 56(DI)
	VZEROUPPER
	RET

// The register-resident BMOD tile. A 6×8 block of C lives in twelve YMM
// accumulators (Y0–Y11, two per row) for the whole sweep over the panel
// dimension: each panel element loads two vectors of the packed Bᵀ strip
// (SI), broadcasts one entry of each A row (R8–R13, indexed by AX) and
// issues twelve FMAs. The accumulators are C entries, not partial dot
// products, so nothing is reduced horizontally; C is read and written
// once, after the sweep. Twelve independent accumulators cover the FMA
// latency with room to spare, which the eight of a 4×8 tile do not.
// TILE_SWEEP expects CX = n and clobbers AX, BX, SI and all sixteen YMM
// registers.

#define TILE_STEP(b0, b1, ao) \
	VMOVUPD      b0(SI), Y12; \
	VMOVUPD      b1(SI), Y13; \
	VBROADCASTSD ao(R8)(AX*8), Y14; \
	VBROADCASTSD ao(R9)(AX*8), Y15; \
	VFMADD231PD  Y12, Y14, Y0; \
	VFMADD231PD  Y13, Y14, Y1; \
	VFMADD231PD  Y12, Y15, Y2; \
	VFMADD231PD  Y13, Y15, Y3; \
	VBROADCASTSD ao(R10)(AX*8), Y14; \
	VBROADCASTSD ao(R11)(AX*8), Y15; \
	VFMADD231PD  Y12, Y14, Y4; \
	VFMADD231PD  Y13, Y14, Y5; \
	VFMADD231PD  Y12, Y15, Y6; \
	VFMADD231PD  Y13, Y15, Y7; \
	VBROADCASTSD ao(R12)(AX*8), Y14; \
	VBROADCASTSD ao(R13)(AX*8), Y15; \
	VFMADD231PD  Y12, Y14, Y8; \
	VFMADD231PD  Y13, Y14, Y9; \
	VFMADD231PD  Y12, Y15, Y10; \
	VFMADD231PD  Y13, Y15, Y11

#define TILE_SWEEP \
	VXORPD Y0, Y0, Y0; \
	VXORPD Y1, Y1, Y1; \
	VXORPD Y2, Y2, Y2; \
	VXORPD Y3, Y3, Y3; \
	VXORPD Y4, Y4, Y4; \
	VXORPD Y5, Y5, Y5; \
	VXORPD Y6, Y6, Y6; \
	VXORPD Y7, Y7, Y7; \
	VXORPD Y8, Y8, Y8; \
	VXORPD Y9, Y9, Y9; \
	VXORPD Y10, Y10, Y10; \
	VXORPD Y11, Y11, Y11; \
	XORQ   AX, AX; \
	MOVQ   CX, BX; \
	ANDQ   $-4, BX; \
	JZ     sweeptail; \
sweeploop4: \
	TILE_STEP(0, 32, 0); \
	TILE_STEP(64, 96, 8); \
	TILE_STEP(128, 160, 16); \
	TILE_STEP(192, 224, 24); \
	ADDQ   $256, SI; \
	ADDQ   $4, AX; \
	CMPQ   AX, BX; \
	JB     sweeploop4; \
sweeptail: \
	CMPQ   AX, CX; \
	JAE    sweepdone; \
sweeploop1: \
	TILE_STEP(0, 32, 0); \
	ADDQ   $64, SI; \
	INCQ   AX; \
	CMPQ   AX, CX; \
	JB     sweeploop1; \
sweepdone:

// Lane masks of a partial strip: the eight quadwords from index 8−nc
// enable the first nc columns.
DATA stripmask<>+0(SB)/8, $-1
DATA stripmask<>+8(SB)/8, $-1
DATA stripmask<>+16(SB)/8, $-1
DATA stripmask<>+24(SB)/8, $-1
DATA stripmask<>+32(SB)/8, $-1
DATA stripmask<>+40(SB)/8, $-1
DATA stripmask<>+48(SB)/8, $-1
DATA stripmask<>+56(SB)/8, $-1
DATA stripmask<>+64(SB)/8, $0
DATA stripmask<>+72(SB)/8, $0
DATA stripmask<>+80(SB)/8, $0
DATA stripmask<>+88(SB)/8, $0
DATA stripmask<>+96(SB)/8, $0
DATA stripmask<>+104(SB)/8, $0
DATA stripmask<>+112(SB)/8, $0
DATA stripmask<>+120(SB)/8, $0
GLOBL stripmask<>(SB), RODATA|NOPTR, $128

// ROW_PTR sets DI to C row s+k (DX = s): c + (s+k)·ldc, or c + rows[s+k]·ldc
// when BX = rows is non-nil. R12 = ldc in bytes.
#define ROW_PTR(k, k8) \
	LEAQ  k(DX), AX; \
	TESTQ BX, BX; \
	JEQ   2(PC); \
	MOVQ  k8(BX)(DX*8), AX; \
	IMULQ R12, AX; \
	MOVQ  c+32(FP), DI; \
	ADDQ  AX, DI

// ROW_UPDATE subtracts one accumulator row from C at DI: all eight
// columns when SI = nc is 8, else only the lanes enabled in Y14/Y15,
// through masked loads and stores that touch no other column.
#define ROW_UPDATE(lo, hi) \
	CMPQ       SI, $8; \
	JNE        8(PC); \
	VMOVUPD    (DI), Y12; \
	VMOVUPD    32(DI), Y13; \
	VSUBPD     lo, Y12, Y12; \
	VSUBPD     hi, Y13, Y13; \
	VMOVUPD    Y12, (DI); \
	VMOVUPD    Y13, 32(DI); \
	JMP        7(PC); \
	VMASKMOVPD (DI), Y14, Y12; \
	VMASKMOVPD 32(DI), Y15, Y13; \
	VSUBPD     lo, Y12, Y12; \
	VSUBPD     hi, Y13, Y13; \
	VMASKMOVPD Y12, Y14, (DI); \
	VMASKMOVPD Y13, Y15, 32(DI)

// func mulsubStrip(a *float64, lda int, bp *float64, n int, c *float64, ldc int, rows *int, nr int, nc int)
//
// The tile over nr rows of A against one packed strip of nc ≤ 8 columns:
// A row s starts at a + s·lda, and C row s at c + rows[s]·ldc, or at
// c + s·ldc when rows is nil. Rows go six at a time (DX = first row of
// the group); in a short last group the missing A rows alias row s and
// their accumulators are never stored. Strip columns past nc must be
// packed as zeros; their lanes are masked off C.
TEXT ·mulsubStrip(SB), NOSPLIT, $0-72
	MOVQ n+24(FP), CX
	XORQ DX, DX
	CMPQ DX, nr+56(FP)
	JGE  stripret

stripgroup:
	MOVQ    nr+56(FP), BX
	SUBQ    DX, BX // rows left
	MOVQ    lda+8(FP), DI
	SHLQ    $3, DI // lda in bytes
	MOVQ    DX, R8
	IMULQ   DI, R8
	ADDQ    a+0(FP), R8
	LEAQ    (R8)(DI*1), R9
	LEAQ    (R9)(DI*1), R10
	LEAQ    (R10)(DI*1), R11
	LEAQ    (R11)(DI*1), R12
	LEAQ    (R12)(DI*1), R13
	CMPQ    BX, $2
	CMOVQLT R8, R9
	CMPQ    BX, $3
	CMOVQLT R8, R10
	CMPQ    BX, $4
	CMOVQLT R8, R11
	CMPQ    BX, $5
	CMOVQLT R8, R12
	CMPQ    BX, $6
	CMOVQLT R8, R13
	MOVQ    bp+16(FP), SI
	TILE_SWEEP

	MOVQ    nr+56(FP), R13
	SUBQ    DX, R13 // rows left
	MOVQ    nc+64(FP), SI
	LEAQ    stripmask<>(SB), AX
	MOVQ    $8, BX
	SUBQ    SI, BX
	VMOVDQU (AX)(BX*8), Y14
	VMOVDQU 32(AX)(BX*8), Y15
	MOVQ    ldc+40(FP), R12
	SHLQ    $3, R12 // ldc in bytes
	MOVQ    rows+48(FP), BX
	ROW_PTR(0, 0)
	ROW_UPDATE(Y0, Y1)
	CMPQ    R13, $2
	JLT     stripnext
	ROW_PTR(1, 8)
	ROW_UPDATE(Y2, Y3)
	CMPQ    R13, $3
	JLT     stripnext
	ROW_PTR(2, 16)
	ROW_UPDATE(Y4, Y5)
	CMPQ    R13, $4
	JLT     stripnext
	ROW_PTR(3, 24)
	ROW_UPDATE(Y6, Y7)
	CMPQ    R13, $5
	JLT     stripnext
	ROW_PTR(4, 32)
	ROW_UPDATE(Y8, Y9)
	CMPQ    R13, $6
	JLT     stripnext
	ROW_PTR(5, 40)
	ROW_UPDATE(Y10, Y11)

stripnext:
	ADDQ $6, DX
	CMPQ DX, nr+56(FP)
	JLT  stripgroup
	VZEROUPPER

stripret:
	RET

// func pack8(b *float64, ldb int, n int, dst *float64)
//
// Transposes eight rows of B into a packed strip: dst[8k+j] = b[j·ldb+k]
// for j < 8, k < n. Two panel elements per iteration: a 128-bit load of
// rows j and j+2 fills the two lanes of one YMM register, and one
// unpack-low/high pair of (rows 0,2 | rows 1,3) yields the first four
// strip entries of elements k and k+1; rows 4–7 fill the second four.
TEXT ·pack8(SB), NOSPLIT, $0-32
	MOVQ b+0(FP), R8
	MOVQ ldb+8(FP), DX
	SHLQ $3, DX // ldb in bytes
	MOVQ n+16(FP), CX
	MOVQ dst+24(FP), DI
	LEAQ (R8)(DX*1), R9
	LEAQ (R9)(DX*1), R10
	LEAQ (R10)(DX*1), R11
	LEAQ (R11)(DX*1), R12
	LEAQ (R12)(DX*1), R13
	LEAQ (R13)(DX*1), AX
	LEAQ (AX)(DX*1), BX
	XORQ DX, DX // k
	MOVQ CX, SI
	ANDQ $-2, SI
	JZ   packtail

pack2:
	VMOVUPD     (R8)(DX*8), X0
	VINSERTF128 $1, (R10)(DX*8), Y0, Y0 // r0[k:k+2] | r2[k:k+2]
	VMOVUPD     (R9)(DX*8), X1
	VINSERTF128 $1, (R11)(DX*8), Y1, Y1 // r1[k:k+2] | r3[k:k+2]
	VMOVUPD     (R12)(DX*8), X2
	VINSERTF128 $1, (AX)(DX*8), Y2, Y2  // r4[k:k+2] | r6[k:k+2]
	VMOVUPD     (R13)(DX*8), X3
	VINSERTF128 $1, (BX)(DX*8), Y3, Y3  // r5[k:k+2] | r7[k:k+2]
	VUNPCKLPD   Y1, Y0, Y4              // r0..r3 at k
	VUNPCKHPD   Y1, Y0, Y5              // r0..r3 at k+1
	VUNPCKLPD   Y3, Y2, Y6              // r4..r7 at k
	VUNPCKHPD   Y3, Y2, Y7              // r4..r7 at k+1
	VMOVUPD     Y4, (DI)
	VMOVUPD     Y6, 32(DI)
	VMOVUPD     Y5, 64(DI)
	VMOVUPD     Y7, 96(DI)
	ADDQ        $128, DI
	ADDQ        $2, DX
	CMPQ        DX, SI
	JB          pack2

packtail:
	CMPQ   DX, CX
	JAE    packdone
	VMOVSD (R8)(DX*8), X0
	VMOVSD X0, (DI)
	VMOVSD (R9)(DX*8), X0
	VMOVSD X0, 8(DI)
	VMOVSD (R10)(DX*8), X0
	VMOVSD X0, 16(DI)
	VMOVSD (R11)(DX*8), X0
	VMOVSD X0, 24(DI)
	VMOVSD (R12)(DX*8), X0
	VMOVSD X0, 32(DI)
	VMOVSD (R13)(DX*8), X0
	VMOVSD X0, 40(DI)
	VMOVSD (AX)(DX*8), X0
	VMOVSD X0, 48(DI)
	VMOVSD (BX)(DX*8), X0
	VMOVSD X0, 56(DI)

packdone:
	VZEROUPPER
	RET

// AVX2 float64 kernels for the NoGrad fast path. Each runs, per output
// element, exactly the operation sequence of the Go loop it stands in for
// (fused.go): lanes are independent outputs, never terms of one sum, and a
// product is always VMULPD then VADDPD — two roundings, never an FMA's one —
// so results match the Go kernels bit for bit.

#include "textflag.h"

// func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbvAsm() (eax, edx uint32)
TEXT ·xgetbvAsm(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// Lane mask for a column tail of r < 4: the 32 bytes at offset 32-8r have
// their first r lanes set.
DATA tailMask<>+0(SB)/8, $0xffffffffffffffff
DATA tailMask<>+8(SB)/8, $0xffffffffffffffff
DATA tailMask<>+16(SB)/8, $0xffffffffffffffff
DATA tailMask<>+24(SB)/8, $0xffffffffffffffff
DATA tailMask<>+32(SB)/8, $0
DATA tailMask<>+40(SB)/8, $0
DATA tailMask<>+48(SB)/8, $0
DATA tailMask<>+56(SB)/8, $0
GLOBL tailMask<>(SB), RODATA|NOPTR, $64

// mulRowsAsm register plan:
//   DI out, SI a, DX b — base of the current column tile (row 0, rank 0)
//   R9 k·8, R11 bstride·8, R13 n·8, R10 columns not yet tiled
//   AX rows left, BX out row, CX end of the a row, R12 rank offset (−k·8 → 0)
//   R8 b row of the current rank, R14 scratch, Y8 the broadcast coefficient

#define ROWS_BEGIN \
	MOVQ rows+24(FP), AX; \
	MOVQ DI, BX; \
	LEAQ (SI)(R9*1), CX

#define RANKS_BEGIN \
	MOVQ R9, R12; \
	NEGQ R12; \
	MOVQ DX, R8

// A coefficient is skipped iff it compares equal to zero: ±0 are the two
// bit patterns that shift left to nothing, and a NaN is neither.
#define RANK_LOAD(skip) \
	MOVQ (CX)(R12*1), R14; \
	SHLQ $1, R14; \
	JZ skip; \
	VBROADCASTSD (CX)(R12*1), Y8

#define MAC(off, acc, tmp) \
	VMULPD off(R8), Y8, tmp; \
	VADDPD tmp, acc, acc

#define RANK_NEXT(loop) \
	ADDQ R11, R8; \
	ADDQ $8, R12; \
	JNZ loop

#define ROW_NEXT(loop) \
	ADDQ R13, BX; \
	ADDQ R9, CX; \
	DECQ AX; \
	JNZ loop

#define TILE_NEXT(bytes, cols, loop) \
	ADDQ $bytes, DI; \
	ADDQ $bytes, DX; \
	SUBQ $cols, R10; \
	JMP loop

// func mulRowsAsm(out, a, b *float64, rows, k, n, bstride int, zero bool)
// out(rows×n) = or += a(rows×k) · b, where rank p of b starts at b[p·bstride]
// and supplies n columns; rows, k, n > 0. Columns are tiled 32/16/8/4 wide
// plus a masked tail; a tile's accumulators stay in registers across all k
// ranks, taken in ascending order with zero coefficients skipped, and the
// tile loop is outermost so the k×tile slab of b is reused across the rows.
// zero starts a chain at +0.0 and adds into it (a −0.0 product still gives
// +0.0, as clearing the row and accumulating does); otherwise it starts
// from out.
TEXT ·mulRowsAsm(SB), NOSPLIT, $0-57
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ k+32(FP), R9
	MOVQ n+40(FP), R10
	MOVQ bstride+48(FP), R11
	SHLQ $3, R9
	SHLQ $3, R11
	MOVQ R10, R13
	SHLQ $3, R13

tile32:
	CMPQ R10, $32
	JLT  tile16
	ROWS_BEGIN
row32:
	CMPB zero+56(FP), $0
	JNE  clear32
	VMOVUPD 0(BX), Y0
	VMOVUPD 32(BX), Y1
	VMOVUPD 64(BX), Y2
	VMOVUPD 96(BX), Y3
	VMOVUPD 128(BX), Y4
	VMOVUPD 160(BX), Y5
	VMOVUPD 192(BX), Y6
	VMOVUPD 224(BX), Y7
	JMP  ranks32
clear32:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
ranks32:
	RANKS_BEGIN
rank32:
	RANK_LOAD(skip32)
	MAC(0, Y0, Y9)
	MAC(32, Y1, Y10)
	MAC(64, Y2, Y11)
	MAC(96, Y3, Y12)
	MAC(128, Y4, Y9)
	MAC(160, Y5, Y10)
	MAC(192, Y6, Y11)
	MAC(224, Y7, Y12)
skip32:
	RANK_NEXT(rank32)
	VMOVUPD Y0, 0(BX)
	VMOVUPD Y1, 32(BX)
	VMOVUPD Y2, 64(BX)
	VMOVUPD Y3, 96(BX)
	VMOVUPD Y4, 128(BX)
	VMOVUPD Y5, 160(BX)
	VMOVUPD Y6, 192(BX)
	VMOVUPD Y7, 224(BX)
	ROW_NEXT(row32)
	TILE_NEXT(256, 32, tile32)

tile16:
	CMPQ R10, $16
	JLT  tile8
	ROWS_BEGIN
row16:
	CMPB zero+56(FP), $0
	JNE  clear16
	VMOVUPD 0(BX), Y0
	VMOVUPD 32(BX), Y1
	VMOVUPD 64(BX), Y2
	VMOVUPD 96(BX), Y3
	JMP  ranks16
clear16:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
ranks16:
	RANKS_BEGIN
rank16:
	RANK_LOAD(skip16)
	MAC(0, Y0, Y9)
	MAC(32, Y1, Y10)
	MAC(64, Y2, Y11)
	MAC(96, Y3, Y12)
skip16:
	RANK_NEXT(rank16)
	VMOVUPD Y0, 0(BX)
	VMOVUPD Y1, 32(BX)
	VMOVUPD Y2, 64(BX)
	VMOVUPD Y3, 96(BX)
	ROW_NEXT(row16)
	TILE_NEXT(128, 16, tile16)

tile8:
	CMPQ R10, $8
	JLT  tile4
	ROWS_BEGIN
row8:
	CMPB zero+56(FP), $0
	JNE  clear8
	VMOVUPD 0(BX), Y0
	VMOVUPD 32(BX), Y1
	JMP  ranks8
clear8:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
ranks8:
	RANKS_BEGIN
rank8:
	RANK_LOAD(skip8)
	MAC(0, Y0, Y9)
	MAC(32, Y1, Y10)
skip8:
	RANK_NEXT(rank8)
	VMOVUPD Y0, 0(BX)
	VMOVUPD Y1, 32(BX)
	ROW_NEXT(row8)
	TILE_NEXT(64, 8, tile8)

tile4:
	CMPQ R10, $4
	JLT  tail
	ROWS_BEGIN
row4:
	CMPB zero+56(FP), $0
	JNE  clear4
	VMOVUPD 0(BX), Y0
	JMP  ranks4
clear4:
	VXORPD Y0, Y0, Y0
ranks4:
	RANKS_BEGIN
rank4:
	RANK_LOAD(skip4)
	MAC(0, Y0, Y9)
skip4:
	RANK_NEXT(rank4)
	VMOVUPD Y0, 0(BX)
	ROW_NEXT(row4)
	TILE_NEXT(32, 4, tile4)

	// The last 1–3 columns: masked loads and stores touch no byte past n,
	// and the idle lanes compute on zeros that are never stored.
tail:
	TESTQ R10, R10
	JZ   done
	LEAQ tailMask<>+32(SB), R14
	SHLQ $3, R10
	SUBQ R10, R14
	VMOVDQU (R14), Y15
	ROWS_BEGIN
rowT:
	CMPB zero+56(FP), $0
	JNE  clearT
	VMASKMOVPD (BX), Y15, Y0
	JMP  ranksT
clearT:
	VXORPD Y0, Y0, Y0
ranksT:
	RANKS_BEGIN
rankT:
	RANK_LOAD(skipT)
	VMASKMOVPD (R8), Y15, Y9
	VMULPD Y9, Y8, Y9
	VADDPD Y9, Y0, Y0
skipT:
	RANK_NEXT(rankT)
	VMASKMOVPD Y0, Y15, (BX)
	ROW_NEXT(rowT)
done:
	VZEROUPPER
	RET

// Horizontal finish of one score: lanes s0..s3 of Y0 (s0 already in X0's
// low lane, plus whatever the scalar remainder added) become
// ((s0+s1)+s2)+s3, times scale, stored, and folded into the running max.
// VMAXSD returns its second source unless the first is greater, which is
// Go's `if v > maxv { maxv = v }`: a NaN score, or a zero tying a zero of
// the other sign, leaves maxv alone.
#define SPLIT_LANES \
	VEXTRACTF128 $1, Y0, X2; \
	VPERMILPD $1, X0, X1; \
	VPERMILPD $1, X2, X3

#define SCORE_FINISH \
	VADDSD X1, X0, X0; \
	VADDSD X2, X0, X0; \
	VADDSD X3, X0, X0; \
	VMULSD X13, X0, X0; \
	VMOVSD X0, (DI); \
	VMAXSD X12, X0, X12; \
	ADDQ $8, DI; \
	ADDQ R8, DX; \
	DECQ CX

// func scoreRowAsm(srow, q, k *float64, nkeys, kstride, hd int, scale, maxv float64) float64
// srow[j] = (q · k[j·kstride : +hd]) · scale for j < nkeys (nkeys, hd > 0),
// returning the running max seeded with maxv. The four lanes are the four
// strided partial sums of the Go loops: hd == 16 runs scoreRow16's chains
// (each partial starts from its first product), any other width runs
// scoreRowGeneric's (partials start from +0.0, the hd%4 remainder goes to
// s0). Keys are independent, so successive iterations overlap freely.
TEXT ·scoreRowAsm(SB), NOSPLIT, $0-72
	MOVQ srow+0(FP), DI
	MOVQ q+8(FP), SI
	MOVQ k+16(FP), DX
	MOVQ nkeys+24(FP), CX
	MOVQ kstride+32(FP), R8
	MOVQ hd+40(FP), R9
	VMOVSD scale+48(FP), X13
	VMOVSD maxv+56(FP), X12
	SHLQ $3, R8
	SHLQ $3, R9
	CMPQ R9, $128
	JEQ  hd16
	MOVQ R9, R10
	ANDQ $-32, R10 // bytes of q covered by whole vectors

key:
	VXORPD Y0, Y0, Y0
	XORQ AX, AX
	CMPQ AX, R10
	JGE  lanes
vec:
	VMOVUPD (SI)(AX*1), Y1
	VMULPD (DX)(AX*1), Y1, Y1
	VADDPD Y1, Y0, Y0
	ADDQ $32, AX
	CMPQ AX, R10
	JLT  vec
lanes:
	SPLIT_LANES
	CMPQ AX, R9
	JGE  finish
rem:
	VMOVSD (SI)(AX*1), X4
	VMULSD (DX)(AX*1), X4, X4
	VADDSD X4, X0, X0
	ADDQ $8, AX
	CMPQ AX, R9
	JLT  rem
finish:
	SCORE_FINISH
	JNZ  key
	JMP  out

hd16:
	VMOVUPD 0(SI), Y4
	VMOVUPD 32(SI), Y5
	VMOVUPD 64(SI), Y6
	VMOVUPD 96(SI), Y7
key16:
	VMULPD 0(DX), Y4, Y0
	VMULPD 32(DX), Y5, Y1
	VADDPD Y1, Y0, Y0
	VMULPD 64(DX), Y6, Y1
	VADDPD Y1, Y0, Y0
	VMULPD 96(DX), Y7, Y1
	VADDPD Y1, Y0, Y0
	SPLIT_LANES
	SCORE_FINISH
	JNZ  key16

out:
	VMOVSD X12, ret+64(FP)
	VZEROUPPER
	RET

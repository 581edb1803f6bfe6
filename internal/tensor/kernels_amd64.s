// AVX2 and AVX-512 float64 kernels. Each runs, per output element, exactly
// the operation sequence of the Go loop it stands in for (fused.go): lanes
// are independent outputs, never terms of one sum, and a product that is
// added to a chain — a matmul rank, a score partial, a weights×V term — is
// one VFMADD231PD, the Go loops' fma(a, x, acc): one rounding, the same
// bits on every machine, so results match the Go kernels bit for bit.
// Every other product (the exp, GELU and tanh polynomials outside EXP_CORE,
// the scale, the normalise) stays a VMULPD of its own, as in the Go code.
// EXP_CORE fuses exactly where Exp (mathfn.go) does.

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

// Register plan of both row kernels (mulRowsAsm, mulRows512Asm):
//   DI out, DX b, SI bias — base of the current column tile (row 0, rank 0);
//   SI walks the tiles whether or not there is a bias, and is read only when
//   bias+64(FP) is not nil
//   R9 k·8, R11 bstride·8, R13 n·8, R10 columns not yet tiled
//   AX rows left, BX out row, CX end of the a row, R12 rank offset (−k·8 → 0)
//   R8 b row of the current rank, R14 scratch, Y8/Z8 the broadcast coefficient

#define ROWS_BEGIN \
	MOVQ rows+24(FP), AX; \
	MOVQ DI, BX; \
	MOVQ a+8(FP), CX; \
	ADDQ R9, CX

#define RANKS_BEGIN \
	MOVQ R9, R12; \
	NEGQ R12; \
	MOVQ DX, R8

// A coefficient is skipped iff it compares equal to zero: ±0 are the two
// bit patterns that shift left to nothing, and a NaN is neither.
#define RANK_LOAD(skip, bcast) \
	MOVQ (CX)(R12*1), R14; \
	SHLQ $1, R14; \
	JZ skip; \
	VBROADCASTSD (CX)(R12*1), bcast

// acc += coefficient · b with one rounding: the Go kernels' fma(a, x, acc)
// per lane.
#define MAC(off, acc) \
	VFMADD231PD off(R8), Y8, acc

#define MAC512(off, acc) \
	VFMADD231PD off(R8), Z8, acc

// The two-row tile's second row: RANK_LOAD on the a row R15 points past.
#define RANK_LOAD_B(skip, bcast) \
	MOVQ (R15)(R12*1), R14; \
	SHLQ $1, R14; \
	JZ skip; \
	VBROADCASTSD (R15)(R12*1), bcast

// MAC2 is MAC512 for both rows of a pair, one load of b feeding both.
#define MAC2(off, acc0, acc1) \
	VMOVUPD off(R8), Z9; \
	VFMADD231PD Z9, Z8, acc0; \
	VFMADD231PD Z9, Z24, acc1

#define RANK_NEXT(loop) \
	ADDQ R11, R8; \
	ADDQ $8, R12; \
	JNZ loop

// The bias epilogue: each finished chain plus its column's bias, one rounded
// add per element — the add AddRowVector makes to a MatMul's output.
#define HAS_BIAS(none) \
	CMPQ bias+64(FP), $0; \
	JEQ none

#define BIAS(off, acc) \
	VADDPD off(SI), acc, acc

#define ROW_NEXT(loop) \
	ADDQ R13, BX; \
	ADDQ R9, CX; \
	DECQ AX; \
	JNZ loop

#define TILE_NEXT(bytes, cols, loop) \
	ADDQ $bytes, DI; \
	ADDQ $bytes, DX; \
	ADDQ $bytes, SI; \
	SUBQ $cols, R10; \
	JMP loop

#define ROWS_PROLOGUE \
	MOVQ out+0(FP), DI; \
	MOVQ b+16(FP), DX; \
	MOVQ bias+64(FP), SI; \
	MOVQ k+32(FP), R9; \
	MOVQ n+40(FP), R10; \
	MOVQ bstride+48(FP), R11; \
	SHLQ $3, R9; \
	SHLQ $3, R11; \
	MOVQ R10, R13; \
	SHLQ $3, R13

// func mulRowsAsm(out, a, b *float64, rows, k, n, bstride int, zero bool, bias *float64)
// out(rows×n) = or += a(rows×k) · b (+ bias), where rank p of b starts at
// b[p·bstride] and supplies n columns, and bias is nil or n elements; rows,
// k, n > 0. Columns are tiled 32/16/8/4 wide plus a masked tail; a tile's
// accumulators stay in registers across all k ranks, taken in ascending
// order with zero coefficients skipped, and the tile loop is outermost so
// the k×tile slab of b is reused across the rows. zero starts a chain at
// +0.0 and adds into it (a −0.0 product still gives +0.0, as clearing the
// row and accumulating does); otherwise it starts from out. The bias is
// added to the finished chain, just before the store.
TEXT ·mulRowsAsm(SB), NOSPLIT, $0-72
	ROWS_PROLOGUE

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
	RANK_LOAD(skip32, Y8)
	MAC(0, Y0)
	MAC(32, Y1)
	MAC(64, Y2)
	MAC(96, Y3)
	MAC(128, Y4)
	MAC(160, Y5)
	MAC(192, Y6)
	MAC(224, Y7)
skip32:
	RANK_NEXT(rank32)
	HAS_BIAS(store32)
	BIAS(0, Y0)
	BIAS(32, Y1)
	BIAS(64, Y2)
	BIAS(96, Y3)
	BIAS(128, Y4)
	BIAS(160, Y5)
	BIAS(192, Y6)
	BIAS(224, Y7)
store32:
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
	RANK_LOAD(skip16, Y8)
	MAC(0, Y0)
	MAC(32, Y1)
	MAC(64, Y2)
	MAC(96, Y3)
skip16:
	RANK_NEXT(rank16)
	HAS_BIAS(store16)
	BIAS(0, Y0)
	BIAS(32, Y1)
	BIAS(64, Y2)
	BIAS(96, Y3)
store16:
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
	RANK_LOAD(skip8, Y8)
	MAC(0, Y0)
	MAC(32, Y1)
skip8:
	RANK_NEXT(rank8)
	HAS_BIAS(store8)
	BIAS(0, Y0)
	BIAS(32, Y1)
store8:
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
	RANK_LOAD(skip4, Y8)
	MAC(0, Y0)
skip4:
	RANK_NEXT(rank4)
	HAS_BIAS(store4)
	BIAS(0, Y0)
store4:
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
	RANK_LOAD(skipT, Y8)
	VMASKMOVPD (R8), Y15, Y9
	VFMADD231PD Y9, Y8, Y0
skipT:
	RANK_NEXT(rankT)
	HAS_BIAS(storeT)
	VMASKMOVPD (SI), Y15, Y9
	VADDPD Y9, Y0, Y0
storeT:
	VMASKMOVPD Y0, Y15, (BX)
	ROW_NEXT(rowT)
done:
	VZEROUPPER
	RET

// func mulRows512Asm(out, a, b *float64, rows, k, n, bstride int, zero bool, bias *float64)
// mulRowsAsm's contract and chain order, eight lanes to a register: columns
// are tiled 64/32/16/8 wide in ZMM accumulators (a 64-column tile is eight
// independent chains per rank, as mulRowsAsm's 32-column one is), and the
// last 1–7 columns are a tail under the opmask K1 = 2^r − 1. The 64-column
// tile runs two rows at a time (Z0–Z7 row i, Z16–Z23 row i+1, broadcasts Z8
// and Z24, R15 past row i+1's a row), so each load of b feeds both rows'
// chains: at the feed-forward shapes the k×64 slab of b does not stay in L1,
// and it, not the FP ports, is the limit (DESIGN.md §8). Each row zero-tests its own coefficient, so a rank runs
// both rows, one of them, or neither; an odd last row takes the one-row
// loop. The chains are the one-row ones. A masked-off
// lane is neither loaded nor stored — AVX-512 suppresses faults on the
// elements a mask excludes — so no byte past n is touched; VMOVUPD.Z loads
// zeros into those lanes, whose results are never stored. Only AVX512F
// instructions: VPXORQ clears (VXORPD on ZMM would need AVX512DQ), KMOVW sets
// the mask.
TEXT ·mulRows512Asm(SB), NOSPLIT, $0-72
	ROWS_PROLOGUE

tile64:
	CMPQ R10, $64
	JLT  tile32z
	ROWS_BEGIN
	CMPQ AX, $2
	JLT  row64
pair64:
	CMPB zero+56(FP), $0
	JNE  clearp64
	VMOVUPD 0(BX), Z0
	VMOVUPD 64(BX), Z1
	VMOVUPD 128(BX), Z2
	VMOVUPD 192(BX), Z3
	VMOVUPD 256(BX), Z4
	VMOVUPD 320(BX), Z5
	VMOVUPD 384(BX), Z6
	VMOVUPD 448(BX), Z7
	VMOVUPD 0(BX)(R13*1), Z16
	VMOVUPD 64(BX)(R13*1), Z17
	VMOVUPD 128(BX)(R13*1), Z18
	VMOVUPD 192(BX)(R13*1), Z19
	VMOVUPD 256(BX)(R13*1), Z20
	VMOVUPD 320(BX)(R13*1), Z21
	VMOVUPD 384(BX)(R13*1), Z22
	VMOVUPD 448(BX)(R13*1), Z23
	JMP  ranksp64
clearp64:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z16, Z16, Z16
	VPXORQ Z17, Z17, Z17
	VPXORQ Z18, Z18, Z18
	VPXORQ Z19, Z19, Z19
	VPXORQ Z20, Z20, Z20
	VPXORQ Z21, Z21, Z21
	VPXORQ Z22, Z22, Z22
	VPXORQ Z23, Z23, Z23
ranksp64:
	RANKS_BEGIN
	LEAQ (CX)(R9*1), R15
rankp64:
	RANK_LOAD(onlyB64, Z8)
	RANK_LOAD_B(onlyA64, Z24)
	MAC2(0, Z0, Z16)
	MAC2(64, Z1, Z17)
	MAC2(128, Z2, Z18)
	MAC2(192, Z3, Z19)
	MAC2(256, Z4, Z20)
	MAC2(320, Z5, Z21)
	MAC2(384, Z6, Z22)
	MAC2(448, Z7, Z23)
	JMP  skipp64
onlyA64:
	MAC512(0, Z0)
	MAC512(64, Z1)
	MAC512(128, Z2)
	MAC512(192, Z3)
	MAC512(256, Z4)
	MAC512(320, Z5)
	MAC512(384, Z6)
	MAC512(448, Z7)
	JMP  skipp64
onlyB64:
	RANK_LOAD_B(skipp64, Z8)
	MAC512(0, Z16)
	MAC512(64, Z17)
	MAC512(128, Z18)
	MAC512(192, Z19)
	MAC512(256, Z20)
	MAC512(320, Z21)
	MAC512(384, Z22)
	MAC512(448, Z23)
skipp64:
	RANK_NEXT(rankp64)
	HAS_BIAS(storep64)
	BIAS(0, Z0)
	BIAS(64, Z1)
	BIAS(128, Z2)
	BIAS(192, Z3)
	BIAS(256, Z4)
	BIAS(320, Z5)
	BIAS(384, Z6)
	BIAS(448, Z7)
	BIAS(0, Z16)
	BIAS(64, Z17)
	BIAS(128, Z18)
	BIAS(192, Z19)
	BIAS(256, Z20)
	BIAS(320, Z21)
	BIAS(384, Z22)
	BIAS(448, Z23)
storep64:
	VMOVUPD Z0, 0(BX)
	VMOVUPD Z1, 64(BX)
	VMOVUPD Z2, 128(BX)
	VMOVUPD Z3, 192(BX)
	VMOVUPD Z4, 256(BX)
	VMOVUPD Z5, 320(BX)
	VMOVUPD Z6, 384(BX)
	VMOVUPD Z7, 448(BX)
	VMOVUPD Z16, 0(BX)(R13*1)
	VMOVUPD Z17, 64(BX)(R13*1)
	VMOVUPD Z18, 128(BX)(R13*1)
	VMOVUPD Z19, 192(BX)(R13*1)
	VMOVUPD Z20, 256(BX)(R13*1)
	VMOVUPD Z21, 320(BX)(R13*1)
	VMOVUPD Z22, 384(BX)(R13*1)
	VMOVUPD Z23, 448(BX)(R13*1)
	LEAQ (BX)(R13*2), BX
	LEAQ (CX)(R9*2), CX
	SUBQ $2, AX
	CMPQ AX, $2
	JGE  pair64
	TESTQ AX, AX
	JZ   next64
row64:
	CMPB zero+56(FP), $0
	JNE  clear64
	VMOVUPD 0(BX), Z0
	VMOVUPD 64(BX), Z1
	VMOVUPD 128(BX), Z2
	VMOVUPD 192(BX), Z3
	VMOVUPD 256(BX), Z4
	VMOVUPD 320(BX), Z5
	VMOVUPD 384(BX), Z6
	VMOVUPD 448(BX), Z7
	JMP  ranks64
clear64:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
ranks64:
	RANKS_BEGIN
rank64:
	RANK_LOAD(skip64, Z8)
	MAC512(0, Z0)
	MAC512(64, Z1)
	MAC512(128, Z2)
	MAC512(192, Z3)
	MAC512(256, Z4)
	MAC512(320, Z5)
	MAC512(384, Z6)
	MAC512(448, Z7)
skip64:
	RANK_NEXT(rank64)
	HAS_BIAS(store64)
	BIAS(0, Z0)
	BIAS(64, Z1)
	BIAS(128, Z2)
	BIAS(192, Z3)
	BIAS(256, Z4)
	BIAS(320, Z5)
	BIAS(384, Z6)
	BIAS(448, Z7)
store64:
	VMOVUPD Z0, 0(BX)
	VMOVUPD Z1, 64(BX)
	VMOVUPD Z2, 128(BX)
	VMOVUPD Z3, 192(BX)
	VMOVUPD Z4, 256(BX)
	VMOVUPD Z5, 320(BX)
	VMOVUPD Z6, 384(BX)
	VMOVUPD Z7, 448(BX)
	ROW_NEXT(row64)
next64:
	TILE_NEXT(512, 64, tile64)

tile32z:
	CMPQ R10, $32
	JLT  tile16z
	ROWS_BEGIN
row32z:
	CMPB zero+56(FP), $0
	JNE  clear32z
	VMOVUPD 0(BX), Z0
	VMOVUPD 64(BX), Z1
	VMOVUPD 128(BX), Z2
	VMOVUPD 192(BX), Z3
	JMP  ranks32z
clear32z:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
ranks32z:
	RANKS_BEGIN
rank32z:
	RANK_LOAD(skip32z, Z8)
	MAC512(0, Z0)
	MAC512(64, Z1)
	MAC512(128, Z2)
	MAC512(192, Z3)
skip32z:
	RANK_NEXT(rank32z)
	HAS_BIAS(store32z)
	BIAS(0, Z0)
	BIAS(64, Z1)
	BIAS(128, Z2)
	BIAS(192, Z3)
store32z:
	VMOVUPD Z0, 0(BX)
	VMOVUPD Z1, 64(BX)
	VMOVUPD Z2, 128(BX)
	VMOVUPD Z3, 192(BX)
	ROW_NEXT(row32z)
	TILE_NEXT(256, 32, tile32z)

tile16z:
	CMPQ R10, $16
	JLT  tile8z
	ROWS_BEGIN
row16z:
	CMPB zero+56(FP), $0
	JNE  clear16z
	VMOVUPD 0(BX), Z0
	VMOVUPD 64(BX), Z1
	JMP  ranks16z
clear16z:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
ranks16z:
	RANKS_BEGIN
rank16z:
	RANK_LOAD(skip16z, Z8)
	MAC512(0, Z0)
	MAC512(64, Z1)
skip16z:
	RANK_NEXT(rank16z)
	HAS_BIAS(store16z)
	BIAS(0, Z0)
	BIAS(64, Z1)
store16z:
	VMOVUPD Z0, 0(BX)
	VMOVUPD Z1, 64(BX)
	ROW_NEXT(row16z)
	TILE_NEXT(128, 16, tile16z)

tile8z:
	CMPQ R10, $8
	JLT  tailz
	ROWS_BEGIN
row8z:
	CMPB zero+56(FP), $0
	JNE  clear8z
	VMOVUPD 0(BX), Z0
	JMP  ranks8z
clear8z:
	VPXORQ Z0, Z0, Z0
ranks8z:
	RANKS_BEGIN
rank8z:
	RANK_LOAD(skip8z, Z8)
	MAC512(0, Z0)
skip8z:
	RANK_NEXT(rank8z)
	HAS_BIAS(store8z)
	BIAS(0, Z0)
store8z:
	VMOVUPD Z0, 0(BX)
	ROW_NEXT(row8z)
	TILE_NEXT(64, 8, tile8z)

tailz:
	TESTQ R10, R10
	JZ   donez
	MOVQ R10, CX
	MOVL $1, R14
	SHLL CX, R14
	DECL R14
	KMOVW R14, K1
	ROWS_BEGIN
rowTz:
	CMPB zero+56(FP), $0
	JNE  clearTz
	VMOVUPD.Z (BX), K1, Z0
	JMP  ranksTz
clearTz:
	VPXORQ Z0, Z0, Z0
ranksTz:
	RANKS_BEGIN
rankTz:
	RANK_LOAD(skipTz, Z8)
	VMOVUPD.Z (R8), K1, Z9
	VFMADD231PD Z9, Z8, Z0
skipTz:
	RANK_NEXT(rankTz)
	HAS_BIAS(storeTz)
	VMOVUPD.Z (SI), K1, Z9
	VADDPD Z9, Z0, Z0
storeTz:
	VMOVUPD Z0, K1, (BX)
	ROW_NEXT(rowTz)
donez:
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
// strided partial sums of the Go loops, each later product fused into its
// partial: hd == 16 runs scoreRow16's chains (each partial starts from its
// first product), any other width runs scoreRowGeneric's (partials start
// from +0.0, the hd%4 remainder goes to s0). Keys are independent, so
// successive iterations overlap freely.
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
	VFMADD231PD (DX)(AX*1), Y1, Y0
	ADDQ $32, AX
	CMPQ AX, R10
	JLT  vec
lanes:
	SPLIT_LANES
	CMPQ AX, R9
	JGE  finish
rem:
	VMOVSD (SI)(AX*1), X4
	VFMADD231SD (DX)(AX*1), X4, X0
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
	VFMADD231PD 32(DX), Y5, Y0
	VFMADD231PD 64(DX), Y6, Y0
	VFMADD231PD 96(DX), Y7, Y0
	SPLIT_LANES
	SCORE_FINISH
	JNZ  key16

out:
	VMOVSD X12, ret+64(FP)
	VZEROUPPER
	RET

// Constants of the exp and GELU kernels, each replicated across a YMM so it
// can be a memory operand. The exp ones are math.archExp's
// ($GOROOT/src/math/exp_amd64.s), the tanh ones math.tanh's (tanh.go).
#define QUAD(off, v) \
	DATA mathc<>+off+0(SB)/8, v; \
	DATA mathc<>+off+8(SB)/8, v; \
	DATA mathc<>+off+16(SB)/8, v; \
	DATA mathc<>+off+24(SB)/8, v

QUAD(0, $0x7fffffffffffffff)                               // |x| mask
QUAD(32, $708.0)                                           // exp's vector range
QUAD(64, $1.4426950408889634073599246810018920)            // LOG2E
QUAD(96, $0.69314718055966295651160180568695068359375)     // LN2U
QUAD(128, $0.28235290563031577122588448175013436025525412068e-12) // LN2L
QUAD(160, $0.0625)
QUAD(192, $2.4801587301587301587e-5)
QUAD(224, $1.9841269841269841270e-4)
QUAD(256, $1.3888888888888888889e-3)
QUAD(288, $8.3333333333333333333e-3)
QUAD(320, $4.1666666666666666667e-2)
QUAD(352, $1.6666666666666666667e-1)
QUAD(384, $0.5)
QUAD(416, $1.0)
QUAD(448, $2.0)
QUAD(480, $0x3ff)                                          // exponent bias
QUAD(512, $0.044715)
QUAD(544, $0.7978845608028654)                             // sqrt(2/π)
QUAD(576, $44.0)                                           // GELU's vector range, inside 0.5·MAXLOG
QUAD(608, $0.625)                                          // tanh's cut
QUAD(640, $-9.64399179425052238628e-1)                     // tanhP[0]
QUAD(672, $-9.92877231001918586564e1)                      // tanhP[1]
QUAD(704, $-1.61468768441708447952e3)                      // tanhP[2]
QUAD(736, $1.12811678491632931402e2)                       // tanhQ[0]
QUAD(768, $2.23548839060100448583e3)                       // tanhQ[1]
QUAD(800, $4.84406305325125486048e3)                       // tanhQ[2]
QUAD(832, $0x8000000000000000)                             // sign bit
GLOBL mathc<>(SB), RODATA|NOPTR, $864

#define ABSMASK mathc<>+0(SB)
#define EXPMAX  mathc<>+32(SB)
#define LOG2E   mathc<>+64(SB)
#define LN2U    mathc<>+96(SB)
#define LN2L    mathc<>+128(SB)
#define SIXTEENTH mathc<>+160(SB)
#define EXPC8   mathc<>+192(SB)
#define EXPC7   mathc<>+224(SB)
#define EXPC6   mathc<>+256(SB)
#define EXPC5   mathc<>+288(SB)
#define EXPC4   mathc<>+320(SB)
#define EXPC3   mathc<>+352(SB)
#define HALF    mathc<>+384(SB)
#define ONE     mathc<>+416(SB)
#define TWO     mathc<>+448(SB)
#define EXPBIAS mathc<>+480(SB)
#define GELUA   mathc<>+512(SB)
#define GELUC   mathc<>+544(SB)
#define GELUMAX mathc<>+576(SB)
#define TANHCUT mathc<>+608(SB)
#define TANHP0  mathc<>+640(SB)
#define TANHP1  mathc<>+672(SB)
#define TANHP2  mathc<>+704(SB)
#define TANHQ0  mathc<>+736(SB)
#define TANHQ1  mathc<>+768(SB)
#define TANHQ2  mathc<>+800(SB)
#define SIGNBIT mathc<>+832(SB)

// EXP_CORE: Y0 = exp(Y0) for four arguments with |x| ≤ 708, clobbering Y1
// and Y2. Instruction for instruction Exp (mathfn.go, the avxfma branch of
// math.archExp), four lanes wide: k = round-to-nearest-even(x·LOG2E) under MXCSR as
// CVTSD2SL, x −= k·LN2U then k·LN2L (fused), ÷16, the degree-8 Horner chain
// (fused), four squarings x·(x+2) the last of which closes with +1 (fused),
// times 2^k built in the exponent field. Within the range the biased
// exponent k+0x3FF stays in [2, 0x7FC], so archExp's overflow, denormal and
// not-finite exits are never the ones it would have taken.
#define EXP_CORE \
	VMULPD LOG2E, Y0, Y1; \
	VCVTPD2DQY Y1, X2; \
	VCVTDQ2PD X2, Y1; \
	VFNMADD231PD LN2U, Y1, Y0; \
	VFNMADD231PD LN2L, Y1, Y0; \
	VMULPD SIXTEENTH, Y0, Y0; \
	VMOVUPD EXPC8, Y1; \
	VFMADD213PD EXPC7, Y0, Y1; \
	VFMADD213PD EXPC6, Y0, Y1; \
	VFMADD213PD EXPC5, Y0, Y1; \
	VFMADD213PD EXPC4, Y0, Y1; \
	VFMADD213PD EXPC3, Y0, Y1; \
	VFMADD213PD HALF, Y0, Y1; \
	VFMADD213PD ONE, Y0, Y1; \
	VMULPD Y1, Y0, Y0; \
	VADDPD TWO, Y0, Y1; \
	VMULPD Y1, Y0, Y0; \
	VADDPD TWO, Y0, Y1; \
	VMULPD Y1, Y0, Y0; \
	VADDPD TWO, Y0, Y1; \
	VMULPD Y1, Y0, Y0; \
	VADDPD TWO, Y0, Y1; \
	VFMADD213PD ONE, Y1, Y0; \
	VPMOVSXDQ X2, Y2; \
	VPADDQ EXPBIAS, Y2, Y2; \
	VPSLLQ $52, Y2, Y2; \
	VMULPD Y2, Y0, Y0

// Both row kernels walk p four elements at a time and return how many
// leading elements they replaced: n, or the start of the first block with a
// lane outside the vector range (the caller runs that block through the
// scalar function and calls again). The last n%4 elements are a block whose
// idle lanes are masked: loaded as zeros (so exp sees −sub there, in range
// for any row maximum softmax meets), never stored.
//   DI p, CX elements left, AX elements done, R8 nonzero in the masked block,
//   Y15 its lane mask.
#define ROW_BEGIN \
	MOVQ p+0(FP), DI; \
	MOVQ n+8(FP), CX; \
	XORQ AX, AX; \
	XORQ R8, R8

#define TAIL_MASK \
	LEAQ tailMask<>+32(SB), R9; \
	MOVQ CX, R10; \
	SHLQ $3, R10; \
	SUBQ R10, R9; \
	VMOVDQU (R9), Y15; \
	MOVQ $1, R8

// func expSubFMAAsm(p *float64, n int, sub float64) int
// p[j] = Exp(p[j] − sub).
TEXT ·expSubFMAAsm(SB), NOSPLIT, $0-32
	ROW_BEGIN
	VBROADCASTSD sub+16(FP), Y14
	VMOVUPD ABSMASK, Y13
	VMOVUPD EXPMAX, Y12
expLoop:
	CMPQ CX, $4
	JLT  expTail
	VMOVUPD (DI), Y0
	VSUBPD Y14, Y0, Y0
expBlock:
	VANDPD Y13, Y0, Y1
	VCMPPD $18, Y12, Y1, Y1 // |x| ≤ 708, false for NaN
	VMOVMSKPD Y1, DX
	CMPL DX, $15
	JNE  expRet
	EXP_CORE
	TESTQ R8, R8
	JNZ  expTailStore
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $4, AX
	SUBQ $4, CX
	JMP  expLoop
expTail:
	TESTQ CX, CX
	JZ   expRet
	TAIL_MASK
	VMASKMOVPD (DI), Y15, Y0
	VSUBPD Y14, Y0, Y0
	JMP  expBlock
expTailStore:
	VMASKMOVPD Y0, Y15, (DI)
	ADDQ CX, AX
expRet:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

// func geluFMAAsm(p *float64, n int) int
// p[j] = 0.5·v·(1 + tanh(c·(v + 0.044715·v³))) in geluScalar's order:
// every product and sum of the polynomial and of tanh's two arms is its
// own VMULPD/VADDPD/VDIVPD, and the only fused operations are EXP_CORE's.
// Both arms are computed for the whole block and blended per lane, an arm no
// lane needs being skipped; a lane's discarded arm sees an argument that arm
// is defined on (exp(2z) with z < 0.625; the rational at s ≤ 44²).
// math.tanh returns a zero argument as it is where the rational would turn
// −0 into +0; the kernel does not, because 1 + (±0) is the same 1.
//   Y4 v, Y5 u = c·(v + 0.044715·v³), Y6 z = |u|, Y7 lanes with z ≥ 0.625,
//   Y8 tanh(u).
TEXT ·geluFMAAsm(SB), NOSPLIT, $0-24
	ROW_BEGIN
	VMOVUPD ABSMASK, Y13
	VMOVUPD GELUMAX, Y12
geluLoop:
	CMPQ CX, $4
	JLT  geluTail
	VMOVUPD (DI), Y4
geluBlock:
	VMULPD GELUA, Y4, Y5
	VMULPD Y4, Y5, Y5
	VMULPD Y4, Y5, Y5
	VADDPD Y5, Y4, Y5
	VMULPD GELUC, Y5, Y5
	VANDPD Y13, Y5, Y6
	VCMPPD $18, Y12, Y6, Y0 // z ≤ 44, false for NaN
	VMOVMSKPD Y0, DX
	CMPL DX, $15
	JNE  geluRet
	VCMPPD $29, TANHCUT, Y6, Y7 // z ≥ 0.625
	VMOVMSKPD Y7, DX
	CMPL DX, $15
	JEQ  geluLarge

	// z < 0.625: u + u·s·P(s)/Q(s), s = u².
	VMULPD Y5, Y5, Y9
	VMULPD TANHP0, Y9, Y10
	VADDPD TANHP1, Y10, Y10
	VMULPD Y9, Y10, Y10
	VADDPD TANHP2, Y10, Y10
	VADDPD TANHQ0, Y9, Y11
	VMULPD Y9, Y11, Y11
	VADDPD TANHQ1, Y11, Y11
	VMULPD Y9, Y11, Y11
	VADDPD TANHQ2, Y11, Y11
	VMULPD Y9, Y5, Y8
	VMULPD Y10, Y8, Y8
	VDIVPD Y11, Y8, Y8
	VADDPD Y8, Y5, Y8
	TESTL DX, DX
	JZ   geluFinish

geluLarge:
	// z ≥ 0.625: 1 − 2/(exp(2z) + 1), with u's sign.
	VADDPD Y6, Y6, Y0
	EXP_CORE
	VADDPD ONE, Y0, Y0
	VMOVUPD TWO, Y1
	VDIVPD Y0, Y1, Y0
	VMOVUPD ONE, Y1
	VSUBPD Y0, Y1, Y0
	VANDPD SIGNBIT, Y5, Y1
	VXORPD Y1, Y0, Y0
	VBLENDVPD Y7, Y0, Y8, Y8

geluFinish:
	VMULPD HALF, Y4, Y0
	VADDPD ONE, Y8, Y1
	VMULPD Y1, Y0, Y0
	TESTQ R8, R8
	JNZ  geluTailStore
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $4, AX
	SUBQ $4, CX
	JMP  geluLoop
geluTail:
	TESTQ CX, CX
	JZ   geluRet
	TAIL_MASK
	VMASKMOVPD (DI), Y15, Y4
	JMP  geluBlock
geluTailStore:
	VMASKMOVPD Y0, Y15, (DI)
	ADDQ CX, AX
geluRet:
	MOVQ AX, ret+16(FP)
	VZEROUPPER
	RET

// EXP_CORE512 is EXP_CORE on Z0 (clobbering Z1, Z2): the same instructions
// in the same order, eight lanes wide, the constants broadcast from their
// first quadword (.BCST). VCVTPD2DQ rounds under MXCSR as its YMM form does.
#define EXP_CORE512 \
	VMULPD.BCST LOG2E, Z0, Z1; \
	VCVTPD2DQ Z1, Y2; \
	VCVTDQ2PD Y2, Z1; \
	VFNMADD231PD.BCST LN2U, Z1, Z0; \
	VFNMADD231PD.BCST LN2L, Z1, Z0; \
	VMULPD.BCST SIXTEENTH, Z0, Z0; \
	VBROADCASTSD EXPC8, Z1; \
	VFMADD213PD.BCST EXPC7, Z0, Z1; \
	VFMADD213PD.BCST EXPC6, Z0, Z1; \
	VFMADD213PD.BCST EXPC5, Z0, Z1; \
	VFMADD213PD.BCST EXPC4, Z0, Z1; \
	VFMADD213PD.BCST EXPC3, Z0, Z1; \
	VFMADD213PD.BCST HALF, Z0, Z1; \
	VFMADD213PD.BCST ONE, Z0, Z1; \
	VMULPD Z1, Z0, Z0; \
	VADDPD.BCST TWO, Z0, Z1; \
	VMULPD Z1, Z0, Z0; \
	VADDPD.BCST TWO, Z0, Z1; \
	VMULPD Z1, Z0, Z0; \
	VADDPD.BCST TWO, Z0, Z1; \
	VMULPD Z1, Z0, Z0; \
	VADDPD.BCST TWO, Z0, Z1; \
	VFMADD213PD.BCST ONE, Z1, Z0; \
	VPMOVSXDQ Y2, Z2; \
	VPADDQ.BCST EXPBIAS, Z2, Z2; \
	VPSLLQ $52, Z2, Z2; \
	VMULPD Z2, Z0, Z0

// The 8-lane row kernels walk p eight elements at a time under the same
// contract as the 4-lane ones, with ROW_BEGIN's registers. The range check
// is an ordered VCMPPD into the opmask K2, taken only when all eight bits
// are set. The last n%8 elements are a block under K1 = 2^r − 1: masked-off
// lanes are neither loaded nor stored (AVX-512 suppresses their faults) and
// hold zeros, in range for both functions, so only the r real lanes decide
// whether the block is taken.
#define TAIL_MASK512 \
	MOVL $1, R9; \
	SHLL CX, R9; \
	DECL R9; \
	KMOVW R9, K1; \
	MOVQ $1, R8

#define ALL_LANES(k, fail) \
	KMOVW k, DX; \
	CMPL DX, $0xff; \
	JNE fail

// func expSub512Asm(p *float64, n int, sub float64) int
// expSubFMAAsm eight lanes wide.
TEXT ·expSub512Asm(SB), NOSPLIT, $0-32
	ROW_BEGIN
	VBROADCASTSD sub+16(FP), Z14
	VBROADCASTSD ABSMASK, Z13
	VBROADCASTSD EXPMAX, Z12
exp8Loop:
	CMPQ CX, $8
	JLT  exp8Tail
	VMOVUPD (DI), Z0
	VSUBPD Z14, Z0, Z0
exp8Block:
	VPANDQ Z13, Z0, Z1
	VCMPPD $18, Z12, Z1, K2 // |x| ≤ 708, false for NaN
	ALL_LANES(K2, exp8Ret)
	EXP_CORE512
	TESTQ R8, R8
	JNZ  exp8TailStore
	VMOVUPD Z0, (DI)
	ADDQ $64, DI
	ADDQ $8, AX
	SUBQ $8, CX
	JMP  exp8Loop
exp8Tail:
	TESTQ CX, CX
	JZ   exp8Ret
	TAIL_MASK512
	VMOVUPD.Z (DI), K1, Z0
	VSUBPD.Z Z14, Z0, K1, Z0
	JMP  exp8Block
exp8TailStore:
	VMOVUPD Z0, K1, (DI)
	ADDQ CX, AX
exp8Ret:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

// func gelu512Asm(p *float64, n int) int
// geluFMAAsm eight lanes wide, with tanh's arms sharing one division: a
// ZMM VDIVPD costs what two YMM ones do, so the kernel blends each lane's
// numerator and denominator under the opmask K3 (lanes with z ≥ 0.625) —
// (u·s·P(s), Q(s)) or (2, exp(2z) + 1) — divides once, and finishes both
// arms from the one quotient t: u + t, or 1 − t with u's sign. Each lane
// divides the operands its own arm divides, so the quotient has its bits.
//   Z4 v, Z5 u, Z6 z = |u|, Z8 the numerator then tanh(u), Z11 the
//   denominator, Z9 t, Z15 0.625, DX K3's bits.
TEXT ·gelu512Asm(SB), NOSPLIT, $0-24
	ROW_BEGIN
	VBROADCASTSD ABSMASK, Z13
	VBROADCASTSD GELUMAX, Z12
	VBROADCASTSD TANHCUT, Z15
gelu8Loop:
	CMPQ CX, $8
	JLT  gelu8Tail
	VMOVUPD (DI), Z4
gelu8Block:
	VMULPD.BCST GELUA, Z4, Z5
	VMULPD Z4, Z5, Z5
	VMULPD Z4, Z5, Z5
	VADDPD Z5, Z4, Z5
	VMULPD.BCST GELUC, Z5, Z5
	VPANDQ Z13, Z5, Z6
	VCMPPD $18, Z12, Z6, K2 // z ≤ 44, false for NaN
	ALL_LANES(K2, gelu8Ret)
	VCMPPD $29, Z15, Z6, K3 // z ≥ 0.625
	KMOVW K3, DX
	CMPL DX, $0xff
	JEQ  gelu8Large

	// z < 0.625: u·s·P(s) over Q(s), s = u².
	VMULPD Z5, Z5, Z9
	VMULPD.BCST TANHP0, Z9, Z10
	VADDPD.BCST TANHP1, Z10, Z10
	VMULPD Z9, Z10, Z10
	VADDPD.BCST TANHP2, Z10, Z10
	VADDPD.BCST TANHQ0, Z9, Z11
	VMULPD Z9, Z11, Z11
	VADDPD.BCST TANHQ1, Z11, Z11
	VMULPD Z9, Z11, Z11
	VADDPD.BCST TANHQ2, Z11, Z11
	VMULPD Z9, Z5, Z8
	VMULPD Z10, Z8, Z8
	TESTL DX, DX
	JZ   gelu8Divide

gelu8Large:
	// z ≥ 0.625: 2 over exp(2z) + 1.
	VADDPD Z6, Z6, Z0
	EXP_CORE512
	VADDPD.BCST ONE, Z0, K3, Z11
	VBROADCASTSD TWO, K3, Z8

gelu8Divide:
	VDIVPD Z11, Z8, Z9
	VADDPD Z9, Z5, Z8
	TESTL DX, DX
	JZ   gelu8Finish
	VBROADCASTSD ONE, Z0
	VSUBPD Z9, Z0, Z0
	VPANDQ.BCST SIGNBIT, Z5, Z1
	VPXORQ Z1, Z0, Z0
	VMOVAPD Z0, K3, Z8

gelu8Finish:
	VMULPD.BCST HALF, Z4, Z0
	VADDPD.BCST ONE, Z8, Z1
	VMULPD Z1, Z0, Z0
	TESTQ R8, R8
	JNZ  gelu8TailStore
	VMOVUPD Z0, (DI)
	ADDQ $64, DI
	ADDQ $8, AX
	SUBQ $8, CX
	JMP  gelu8Loop
gelu8Tail:
	TESTQ CX, CX
	JZ   gelu8Ret
	TAIL_MASK512
	VMOVUPD.Z (DI), K1, Z4
	JMP  gelu8Block
gelu8TailStore:
	VMOVUPD Z0, K1, (DI)
	ADDQ CX, AX
gelu8Ret:
	MOVQ AX, ret+16(FP)
	VZEROUPPER
	RET


// Attention eight query rows at a time, one row per lane: FusedAttentionCore
// at head width 16 where haveAVX512 (attnBlocks, kernels_amd64.go). The rows
// of a span see the same key ranges, so for every key the eight rows'
// scores, max steps, exponentials, sum steps and weights×V terms are one
// vertical operation each, and every lane runs the per-row path's scalar
// operations in the per-row order:
//   attnScores512Asm  scores and the running max (scoreRow16's chains);
//   attnExp512Asm     Exp(v − max) and softmax's sum (expSubRow, the sum loop);
//   attnOut512Asm     the normalise and the weights×V chains (mulRowRange's).
// The scores and exponentials live in a key-major scratch, eight lanes per
// key, range A's keys then range B's. A block of r < 8 rows fills lanes
// r..7 with row r−1 again (tail lanes): they are computed and never stored.
DATA laneIota<>+0(SB)/8, $0
DATA laneIota<>+8(SB)/8, $1
DATA laneIota<>+16(SB)/8, $2
DATA laneIota<>+24(SB)/8, $3
DATA laneIota<>+32(SB)/8, $4
DATA laneIota<>+40(SB)/8, $5
DATA laneIota<>+48(SB)/8, $6
DATA laneIota<>+56(SB)/8, $7
GLOBL laneIota<>(SB), RODATA|NOPTR, $64

#define NEGINF $0xfff0000000000000

// LANE_OFFSETS sets idx lane l to min(l, last)·stride·8, the byte offset of
// row l of a block with tail lanes on row last; it clobbers stride and tmp.
// VPMULUDQ multiplies the low 32 bits of each quadword, which hold both
// factors for any stride below 2²⁹ elements.
#define LANE_OFFSETS(last, stride, idx, tmp) \
	VPBROADCASTQ last, tmp; \
	VPMINSQ laneIota<>(SB), tmp, idx; \
	SHLQ $3, stride; \
	VPBROADCASTQ stride, tmp; \
	VPMULUDQ tmp, idx, idx

// GATHER loads dimension off/8 of the block's eight query rows into dst.
#define GATHER(off, dst) \
	KXNORW K1, K1, K1; \
	VGATHERQPD off(SI)(Z8*1), K1, dst

// PARTIALS fuses the products of one group of four key dimensions into the
// partials Z0..Z3.
#define PARTIALS(o0, o1, o2, o3, q0, q1, q2, q3) \
	VFMADD231PD.BCST o0(DX), q0, Z0; \
	VFMADD231PD.BCST o1(DX), q1, Z1; \
	VFMADD231PD.BCST o2(DX), q2, Z2; \
	VFMADD231PD.BCST o3(DX), q3, Z3

// func attnScores512Asm(s, q *float64, qstride, rows int, ka *float64, na int, kb *float64, nb, kstride int, scale float64, maxv *float64)
// For key j of range A (na key rows from ka) then range B (nb from kb), key
// rows kstride apart, s[8j+l] = (q_l · k_j)·scale, and maxv[l] is the fold
// of `if v > maxv { maxv = v }` over lane l's scores from −Inf. q_l is
// query row l of the block, rows qstride apart (1 ≤ rows ≤ 8; a tail lane
// reads row rows−1). A lane's dot is scoreRow16's: the strided partials
// s_d = q[d]·k[d] + q[d+4]·k[d+4] + q[d+8]·k[d+8] + q[d+12]·k[d+12], left to
// right with each later product fused, then ((s0+s1)+s2)+s3, × scale.
// Sixteen gathers transpose the query
// (Z16+d holds dimension d of the eight rows) and each key dimension is a
// broadcast memory operand. The max step is an ordered compare into K2 and
// a masked move, the Go statement exactly: a NaN score never wins, and a
// zero does not displace the zero of the other sign it ties.
//   DI s, DX key row, CX keys left in the range, BX ranges done,
//   R8 kstride·8, Z14 the maxima, Z15 scale.
TEXT ·attnScores512Asm(SB), NOSPLIT, $0-88
	MOVQ q+8(FP), SI
	MOVQ rows+24(FP), AX
	DECQ AX
	MOVQ qstride+16(FP), BX
	LANE_OFFSETS(AX, BX, Z8, Z9)
	GATHER(0, Z16)
	GATHER(8, Z17)
	GATHER(16, Z18)
	GATHER(24, Z19)
	GATHER(32, Z20)
	GATHER(40, Z21)
	GATHER(48, Z22)
	GATHER(56, Z23)
	GATHER(64, Z24)
	GATHER(72, Z25)
	GATHER(80, Z26)
	GATHER(88, Z27)
	GATHER(96, Z28)
	GATHER(104, Z29)
	GATHER(112, Z30)
	GATHER(120, Z31)
	MOVQ s+0(FP), DI
	MOVQ kstride+64(FP), R8
	SHLQ $3, R8
	VBROADCASTSD scale+72(FP), Z15
	MOVQ NEGINF, AX
	VPBROADCASTQ AX, Z14
	MOVQ ka+32(FP), DX
	MOVQ na+40(FP), CX
	XORQ BX, BX
scoreRange:
	TESTQ CX, CX
	JZ   scoreNext
scoreKey:
	VMULPD.BCST 0(DX), Z16, Z0
	VMULPD.BCST 8(DX), Z17, Z1
	VMULPD.BCST 16(DX), Z18, Z2
	VMULPD.BCST 24(DX), Z19, Z3
	PARTIALS(32, 40, 48, 56, Z20, Z21, Z22, Z23)
	PARTIALS(64, 72, 80, 88, Z24, Z25, Z26, Z27)
	PARTIALS(96, 104, 112, 120, Z28, Z29, Z30, Z31)
	VADDPD Z1, Z0, Z0
	VADDPD Z2, Z0, Z0
	VADDPD Z3, Z0, Z0
	VMULPD Z15, Z0, Z0
	VMOVUPD Z0, (DI)
	VCMPPD $0x1e, Z14, Z0, K2 // v > max (GT_OQ), false for NaN
	VMOVAPD Z0, K2, Z14
	ADDQ R8, DX
	ADDQ $64, DI
	DECQ CX
	JNZ  scoreKey
scoreNext:
	TESTQ BX, BX
	JNZ  scoreDone
	INCQ BX
	MOVQ kb+48(FP), DX
	MOVQ nb+56(FP), CX
	JMP  scoreRange
scoreDone:
	MOVQ maxv+80(FP), AX
	VMOVUPD Z14, (AX)
	VZEROUPPER
	RET

// func attnExp512Asm(p *float64, n int, maxv, sum *float64) int
// p[j] = Exp(p[j] − maxv[j mod 8]) with sum[l] += each of lane l's results
// in order, for n a multiple of 8: expSub512Asm with a subtrahend per lane
// and softmax's sum folded in as one vertical VADDPD per key. It returns
// how many elements it replaced: n, or the start of the first block with a
// live lane outside |x| ≤ 708 (the caller runs that block on the scalar Exp
// and calls again). A dead lane — max −Inf, its row saw no score above −Inf
// — does not decide whether a block is taken; its results are never stored.
//   DI p, CX elements left, AX elements done, R9 sum, K3 dead lanes,
//   Z10 the sums, Z14 the maxima.
TEXT ·attnExp512Asm(SB), NOSPLIT, $0-40
	MOVQ p+0(FP), DI
	MOVQ n+8(FP), CX
	XORQ AX, AX
	MOVQ maxv+16(FP), R8
	VMOVUPD (R8), Z14
	MOVQ sum+24(FP), R9
	VMOVUPD (R9), Z10
	MOVQ NEGINF, R8
	VPBROADCASTQ R8, Z11
	VCMPPD $0, Z11, Z14, K3 // max == −Inf
	VBROADCASTSD ABSMASK, Z13
	VBROADCASTSD EXPMAX, Z12
attnExpLoop:
	TESTQ CX, CX
	JZ   attnExpRet
	VMOVUPD (DI), Z0
	VSUBPD Z14, Z0, Z0
	VPANDQ Z13, Z0, Z1
	VCMPPD $18, Z12, Z1, K2 // |x| ≤ 708, false for NaN
	KORW K3, K2, K2
	ALL_LANES(K2, attnExpRet)
	EXP_CORE512
	VMOVUPD Z0, (DI)
	VADDPD Z0, Z10, Z10
	ADDQ $64, DI
	ADDQ $8, AX
	SUBQ $8, CX
	JMP  attnExpLoop
attnExpRet:
	VMOVUPD Z10, (R9)
	MOVQ AX, ret+32(FP)
	VZEROUPPER
	RET

// WV fuses w·v[c] into column c's chain on the lanes whose weight is not
// zero; merge masking leaves the other lanes' chains as they were.
#define WV(off, acc) \
	VFMADD231PD.BCST off(DX), Z0, K1, acc

// STORE_COL zeroes column c on the dead lanes and scatters it to the block's
// rows, off bytes into each.
#define STORE_COL(off, acc) \
	VMOVAPD.Z acc, K4, acc; \
	KMOVW K5, K1; \
	VSCATTERQPD acc, K1, off(DI)(Z8*1)

// func attnOut512Asm(out *float64, ostride, rows int, e, va *float64, na int, vb *float64, nb, vstride int, maxv, sum *float64)
// Row l < rows of out (rows ostride apart, 16 columns) = Σ_j w_lj·v_j over
// the keys of range A (na value rows from va) then range B (nb from vb),
// value rows vstride apart, where e holds the exponentials as
// attnExp512Asm left them and w_lj = e[8j+l]·(1/sum[l]) — the in-place
// normalise's rounding. Each column is mulRowRange's chain for one output
// element: from +0.0, fuse w·v[c] in when w is not zero, in key order. The
// test is a NEQ_UQ compare into K1 (±0 skipped, NaN added, as mulRowRange's
// SHL/JZ) and the step a merge-masked VFMADD231PD. A lane whose max is −Inf
// (dead) stores zeros, as the per-row path does; lanes ≥ rows are not
// stored. The per-row path's other zeros rule, a sum of 0, needs no test
// here: a live lane's max is a score, whose own weight is Exp(0) = 1, so its
// sum is at least 1 — or NaN, where the max is +Inf and Exp(+Inf − +Inf) is.
//   SI e, DX value row, CX keys left in the range, BX ranges done,
//   R8 vstride·8, Z14 zero, Z15 the inverse sums, K4 live lanes,
//   Z16+c column c.
TEXT ·attnOut512Asm(SB), NOSPLIT, $0-88
	MOVQ maxv+72(FP), AX
	VMOVUPD (AX), Z11
	MOVQ NEGINF, AX
	VPBROADCASTQ AX, Z12
	VCMPPD $4, Z12, Z11, K4 // max ≠ −Inf
	MOVQ sum+80(FP), AX
	VMOVUPD (AX), Z10
	VPXORQ Z14, Z14, Z14
	VBROADCASTSD ONE, Z15
	VDIVPD Z10, Z15, Z15
	VPXORQ Z16, Z16, Z16
	VPXORQ Z17, Z17, Z17
	VPXORQ Z18, Z18, Z18
	VPXORQ Z19, Z19, Z19
	VPXORQ Z20, Z20, Z20
	VPXORQ Z21, Z21, Z21
	VPXORQ Z22, Z22, Z22
	VPXORQ Z23, Z23, Z23
	VPXORQ Z24, Z24, Z24
	VPXORQ Z25, Z25, Z25
	VPXORQ Z26, Z26, Z26
	VPXORQ Z27, Z27, Z27
	VPXORQ Z28, Z28, Z28
	VPXORQ Z29, Z29, Z29
	VPXORQ Z30, Z30, Z30
	VPXORQ Z31, Z31, Z31
	MOVQ e+24(FP), SI
	MOVQ vstride+64(FP), R8
	SHLQ $3, R8
	MOVQ va+32(FP), DX
	MOVQ na+40(FP), CX
	XORQ BX, BX
outRange:
	TESTQ CX, CX
	JZ   outNext
outKey:
	VMULPD (SI), Z15, Z0
	VCMPPD $4, Z14, Z0, K1 // w ≠ 0 (NEQ_UQ), true for NaN
	WV(0, Z16)
	WV(8, Z17)
	WV(16, Z18)
	WV(24, Z19)
	WV(32, Z20)
	WV(40, Z21)
	WV(48, Z22)
	WV(56, Z23)
	WV(64, Z24)
	WV(72, Z25)
	WV(80, Z26)
	WV(88, Z27)
	WV(96, Z28)
	WV(104, Z29)
	WV(112, Z30)
	WV(120, Z31)
	ADDQ $64, SI
	ADDQ R8, DX
	DECQ CX
	JNZ  outKey
outNext:
	TESTQ BX, BX
	JNZ  outStore
	INCQ BX
	MOVQ vb+48(FP), DX
	MOVQ nb+56(FP), CX
	JMP  outRange
outStore:
	MOVQ rows+16(FP), CX
	MOVL $1, AX
	SHLL CX, AX
	DECL AX
	KMOVW AX, K5
	MOVQ ostride+8(FP), AX
	SHLQ $3, AX
	VPBROADCASTQ AX, Z9
	VPMULUDQ laneIota<>(SB), Z9, Z8
	MOVQ out+0(FP), DI
	STORE_COL(0, Z16)
	STORE_COL(8, Z17)
	STORE_COL(16, Z18)
	STORE_COL(24, Z19)
	STORE_COL(32, Z20)
	STORE_COL(40, Z21)
	STORE_COL(48, Z22)
	STORE_COL(56, Z23)
	STORE_COL(64, Z24)
	STORE_COL(72, Z25)
	STORE_COL(80, Z26)
	STORE_COL(88, Z27)
	STORE_COL(96, Z28)
	STORE_COL(104, Z29)
	STORE_COL(112, Z30)
	STORE_COL(120, Z31)
	VZEROUPPER
	RET

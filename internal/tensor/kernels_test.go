package tensor

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The process's own kernel selection, before any test flips it.
var cpuAVX2, cpuAVX512 = haveAVX2, haveAVX512

// kernelChoices names the implementations every kernel test runs: the
// AVX-512 kernels (the 8-lane rows and the attention blocks, with the AVX2
// score kernel under the per-row attention path; skipped where the CPU lacks
// AVX-512), the AVX2 assembly alone (skipped where it lacks AVX2 or FMA),
// and the Go kernels.
type kernelChoice struct {
	name         string
	avx2, avx512 bool
}

var kernelChoices = []kernelChoice{
	{"avx512", true, true},
	{"asm", true, false},
	{"generic", false, false},
}

// missing is why this machine cannot run the choice, or "".
func (kc kernelChoice) missing() string {
	switch {
	case kc.avx2 && !cpuAVX2:
		return "no AVX2 and FMA on this machine (" + Kernels() + ")"
	case kc.avx512 && !cpuAVX512:
		return "no AVX-512 on this machine (" + Kernels() + ")"
	}
	return ""
}

// with runs f on the choice's kernels: the AVX2 assembly on or off, and on
// top of it the AVX-512 kernels. Serial tests only (the flags are package
// state).
func (kc kernelChoice) with(t testing.TB, f func()) {
	t.Helper()
	old2, old512 := haveAVX2, haveAVX512
	haveAVX2, haveAVX512 = kc.avx2, kc.avx512
	defer func() { haveAVX2, haveAVX512 = old2, old512 }()
	f()
}

// eachKernel runs f as one subtest per kernel choice, so one body checks
// every implementation.
func eachKernel(t *testing.T, f func(t *testing.T)) {
	for _, kc := range kernelChoices {
		t.Run(kc.name, func(t *testing.T) {
			if why := kc.missing(); why != "" {
				t.Skip(why)
			}
			kc.with(t, func() { f(t) })
		})
	}
}

// The values arithmetic treats specially: both zeros (the zero-skip and the
// sign of an all-zero chain), infinities and NaN (Inf·0, Inf−Inf, a NaN
// coefficient is not a zero), and subnormals (gradual underflow in the
// product and in the sum).
var kernelSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1040, -0x1p-1030,
	math.MaxFloat64, 0x1p-600,
}

// fillKernelInput draws s from a normal distribution and overwrites about
// one element in `every` with a special (every <= 0: none).
func fillKernelInput(rng *rand.Rand, s []float64, every int) {
	for i := range s {
		s[i] = rng.NormFloat64()
		if every > 0 && rng.Intn(every) == 0 {
			s[i] = kernelSpecials[rng.Intn(len(kernelSpecials))]
		}
	}
}

// firstBitDiff returns the first index where got and want differ in their
// bits, or -1. Any NaN equals any NaN: which of two NaN operands' payloads
// an x86 add or multiply forwards depends on operand order, which neither
// the Go compiler nor the spec pins down, and nothing downstream reads a
// payload.
func firstBitDiff(got, want []float64) int {
	for i, w := range want {
		if math.Float64bits(got[i]) != math.Float64bits(w) && !(math.IsNaN(got[i]) && math.IsNaN(w)) {
			return i
		}
	}
	return -1
}

// mulRowRangeRef is the specification of mulRowRange, one output element at
// a time: start from +0.0 or from out, walk the ranks in ascending order,
// skip a coefficient that equals zero, fuse each product into the chain with
// one rounding, then add the column's bias (if any) to the finished chain.
func mulRowRangeRef(out, a, b []float64, lo, hi, k, n, bstride, c0 int, zero bool, bias []float64) {
	for i := lo; i < hi; i++ {
		for j := 0; j < n; j++ {
			acc := out[i*n+j]
			if zero {
				acc = 0
			}
			for p := 0; p < k; p++ {
				if av := a[i*k+p]; av != 0 {
					acc = fma(av, b[p*bstride+c0+j], acc)
				}
			}
			if bias != nil {
				acc += bias[j]
			}
			out[i*n+j] = acc
		}
	}
}

// mulCase is one mulRowRange call; checkMulRowRange runs it through the
// reference and every matmul kernel the machine has.
type mulCase struct {
	m, lo, k, n, c0, pad int // rows [lo, m) of an m×k A; bstride = c0+n+pad
	zero, bias           bool
	specials             int  // fillKernelInput's `every`
	pairs                bool // plant plantPairCoefficients' patterns in A
}

type mulBufs struct{ out, a, b, bias *guardBuf }

func newMulBufs(t testing.TB, maxDim int) mulBufs {
	return mulBufs{
		out:  newGuardBuf(t, maxDim*(2*maxDim+16)),
		a:    newGuardBuf(t, maxDim*maxDim),
		b:    newGuardBuf(t, maxDim*(2*maxDim+16)),
		bias: newGuardBuf(t, 2*maxDim+16),
	}
}

// pairCase is a mulCase for the AVX-512 kernel's two-row tile: 1–9 rows
// (odd counts end on the one-row loop) at least 64 columns wide, with the
// per-row coefficient patterns planted. It fits newMulBufs(maxDim) for
// maxDim ≥ 64.
func pairCase(rng *rand.Rand, maxDim int) mulCase {
	lo := rng.Intn(3)
	return mulCase{
		m: lo + 1 + rng.Intn(9), lo: lo, k: 1 + rng.Intn(maxDim), n: 64 + rng.Intn(maxDim),
		c0: rng.Intn(8), pad: rng.Intn(9), zero: rng.Intn(2) == 0, bias: rng.Intn(2) == 0, pairs: true,
	}
}

// plantPairCoefficients overwrites A's coefficients so that at every rank
// each pair of rows (lo, lo+1), (lo+2, lo+3), … takes one of the two-row
// tile's cases — both live, only the first zero, only the second zero, both
// zero (of either sign) — or carries a NaN in one row, which is not a zero
// and is never skipped. An odd last row is live, zero or NaN.
func plantPairCoefficients(rng *rand.Rand, a []float64, lo, m, k int) {
	zero := func() float64 { return []float64{0, math.Copysign(0, -1)}[rng.Intn(2)] }
	for i := lo; i < m; i += 2 {
		for p := 0; p < k; p++ {
			r0 := &a[i*k+p]
			if i+1 == m {
				switch rng.Intn(3) {
				case 1:
					*r0 = zero()
				case 2:
					*r0 = math.NaN()
				}
				continue
			}
			r1 := &a[(i+1)*k+p]
			switch rng.Intn(5) {
			case 1:
				*r0 = zero()
			case 2:
				*r1 = zero()
			case 3:
				*r0, *r1 = zero(), zero()
			case 4:
				*[]*float64{r0, r1}[rng.Intn(2)] = math.NaN()
			}
		}
	}
}

// checkMulRowRange places every operand so that it ends at a guard page
// (hi == m, B holds exactly (k-1)·bstride+c0+n elements and the bias n), so
// a kernel that touches memory past n columns or k ranks faults.
func checkMulRowRange(t testing.TB, bufs mulBufs, rng *rand.Rand, c mulCase) {
	t.Helper()
	bstride := c.c0 + c.n + c.pad
	a := bufs.a.tail(c.m * c.k)
	b := bufs.b.tail((c.k-1)*bstride + c.c0 + c.n)
	out0 := make([]float64, c.m*c.n)
	fillKernelInput(rng, a, c.specials)
	fillKernelInput(rng, b, c.specials)
	fillKernelInput(rng, out0, c.specials)
	if c.pairs {
		plantPairCoefficients(rng, a, c.lo, c.m, c.k)
	}
	var bias []float64
	if c.bias {
		bias = bufs.bias.tail(c.n)
		fillKernelInput(rng, bias, c.specials)
	}

	want := append([]float64(nil), out0...)
	mulRowRangeRef(want, a, b, c.lo, c.m, c.k, c.n, bstride, c.c0, c.zero, bias)
	for _, kc := range kernelChoices {
		if kc.missing() != "" {
			continue
		}
		got := bufs.out.tail(c.m * c.n)
		copy(got, out0)
		kc.with(t, func() {
			mulRowRange(got, a, b, c.lo, c.m, c.k, c.n, bstride, c.c0, c.zero, bias)
		})
		if i := firstBitDiff(got, want); i >= 0 {
			t.Fatalf("%+v on %s: out[%d] (row %d, col %d) = %v (%#x), reference %v (%#x)",
				c, kc.name, i, i/c.n, i%c.n, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// Property: both assembly row kernels and the blocked Go kernel equal the
// one-element-at-a-time reference in every bit, over random shapes that mix
// all tile widths with a masked tail, column offsets into a wider B, both
// accumulation modes, with and without a bias, and planted zeros, −0.0,
// ±Inf, NaN and subnormals; and, every other trial, over pairCase's 1–9
// rows with each row's coefficients zero, live or NaN independently of its
// partner's.
func TestMulRowRangeBitExact(t *testing.T) {
	const maxDim = 70
	bufs := newMulBufs(t, maxDim)
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 800; trial++ {
		m := 1 + rng.Intn(maxDim)
		c := mulCase{
			m: m, lo: rng.Intn(m), k: 1 + rng.Intn(maxDim), n: 1 + rng.Intn(maxDim),
			c0: rng.Intn(maxDim), pad: rng.Intn(9), zero: rng.Intn(2) == 0, bias: rng.Intn(2) == 0,
		}
		if trial%2 == 1 {
			c = pairCase(rng, maxDim)
		}
		switch trial % 3 { // clean, sprinkled, saturated with specials
		case 1:
			c.specials = 12
		case 2:
			c.specials = 2
		}
		checkMulRowRange(t, bufs, rng, c)
	}
}

// The shapes the models run: the paper config's Hidden=312 and HeadDim=26,
// the repro config's 64/128/192/16 projections with their biases, and
// one-row weights×V products; and widths that take every tile of both
// assembly kernels (127 is 64+32+16+8 and a 7-column tail at eight lanes,
// 3·32+16+8+4 and a 3-column tail at four; 120 has no tail at eight).
func TestMulRowRangeModelShapes(t *testing.T) {
	bufs := newMulBufs(t, 320)
	rng := rand.New(rand.NewSource(32))
	for _, c := range []mulCase{
		{m: 3, k: 312, n: 312, specials: 40},
		{m: 3, k: 312, n: 312, zero: true, bias: true, specials: 40},
		{m: 2, k: 64, n: 192, zero: true},
		{m: 2, k: 64, n: 192, zero: true, bias: true},
		{m: 3, k: 128, n: 64, zero: true, bias: true, specials: 40},
		{m: 2, k: 64, n: 128, c0: 64, pad: 64, zero: true, bias: true},
		{m: 5, k: 64, n: 64, c0: 128, zero: true, specials: 40},
		{m: 1, k: 97, n: 26, c0: 52, pad: 26, zero: true, specials: 9},
		{m: 1, k: 128, n: 16, c0: 144, pad: 32, specials: 9},
		{m: 4, lo: 3, k: 1, n: 1},
		{m: 4, lo: 1, k: 1, n: 1, bias: true},
		{m: 3, k: 33, n: 127, c0: 5, pad: 3, zero: true, bias: true, specials: 9},
		{m: 3, k: 33, n: 127, c0: 5, pad: 3, specials: 9},
		{m: 2, k: 9, n: 120, bias: true, specials: 3},
	} {
		checkMulRowRange(t, bufs, rng, c)
	}
}

// FuzzMulRowRange runs random shapes against the reference on every kernel;
// with pairs set, the two-row tile's: pairCase's rows, widths and
// per-row coefficient patterns.
func FuzzMulRowRange(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), true, uint8(0), false)
	f.Add(int64(2), uint8(6), uint8(63), uint8(62), uint8(5), uint8(3), false, uint8(2), false)
	f.Add(int64(3), uint8(1), uint8(8), uint8(35), uint8(0), uint8(0), true, uint8(12), false)
	f.Add(int64(4), uint8(69), uint8(69), uint8(69), uint8(69), uint8(8), false, uint8(5), false)
	f.Add(int64(5), uint8(2), uint8(17), uint8(2), uint8(40), uint8(1), true, uint8(1), false)
	f.Add(int64(6), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), true, uint8(0), true)
	f.Add(int64(7), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), false, uint8(3), true)
	const maxDim = 70
	bufs := newMulBufs(f, maxDim)
	f.Fuzz(func(t *testing.T, seed int64, m, k, n, c0, pad uint8, zero bool, specials uint8, pairs bool) {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + int(m)%maxDim
		c := mulCase{
			m: rows, lo: rng.Intn(rows), k: 1 + int(k)%maxDim, n: 1 + int(n)%maxDim,
			c0: int(c0) % maxDim, pad: int(pad) % 9, zero: zero, bias: rng.Intn(2) == 0,
		}
		if pairs {
			c = pairCase(rng, maxDim)
		}
		c.specials = int(specials) % 16
		checkMulRowRange(t, bufs, rng, c)
	})
}

// scoreBufs holds scoreRow's operands, each ending at a guard page.
type scoreBufs struct{ srow, q, kv *guardBuf }

const maxScoreKeys, maxScoreHD = 40, 64

func newScoreBufs(t testing.TB) scoreBufs {
	return scoreBufs{
		srow: newGuardBuf(t, maxScoreKeys),
		q:    newGuardBuf(t, maxScoreHD),
		kv:   newGuardBuf(t, maxScoreKeys*(3*maxScoreHD+8)),
	}
}

// scoreCase is one scoreRow call: keys [lo, hi) of a block whose rows are
// stride apart, each key hd wide starting kOff into its row.
type scoreCase struct {
	hd, lo, hi, kOff, stride int
	scale, maxv              float64
}

// operands returns q and the key block of c, sized exactly so that each ends
// at its guard page, for the caller to fill.
func (b scoreBufs) operands(c scoreCase) (q, kvp []float64) {
	return b.q.tail(c.hd), b.kv.tail((c.hi-1)*c.stride + c.kOff + c.hd)
}

// checkScoreRow compares scoreRow, on whichever kernels are selected, with
// scoreRowGo in every bit: the scores and the returned max. It returns the
// reference scores and max.
func checkScoreRow(t testing.TB, b scoreBufs, c scoreCase) (want []float64, wantMax float64) {
	t.Helper()
	q, kvp := b.operands(c)
	want = make([]float64, c.hi)
	wantMax = scoreRowGo(want, q, kvp, c.kOff, c.stride, c.lo, c.hi, c.hd, c.scale, c.maxv)
	got := b.srow.tail(c.hi)
	clear(got)
	gotMax := scoreRow(got, q, kvp, c.kOff, c.stride, c.lo, c.hi, c.hd, c.scale, c.maxv)
	if i := firstBitDiff(got, want); i >= 0 {
		t.Fatalf("%+v on %s: score[%d] = %v (%#x), Go kernel %v (%#x)",
			c, Kernels(), i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
	}
	if firstBitDiff([]float64{gotMax}, []float64{wantMax}) >= 0 {
		t.Fatalf("%+v on %s: max = %v (%#x), Go kernel %v (%#x)",
			c, Kernels(), gotMax, math.Float64bits(gotMax), wantMax, math.Float64bits(wantMax))
	}
	return want, wantMax
}

// plantZeroScores rewrites c's operands so that every score is −2⁻⁸⁰ or a
// zero of either sign (±2⁻¹⁰⁰⁰ times a scale of 2⁻⁸⁰ rounds to a signed
// zero), drawn per key.
func plantZeroScores(rng *rand.Rand, c *scoreCase, q, kvp []float64) {
	c.scale = 0x1p-80
	for i := range q {
		q[i] = 1
	}
	for j := c.lo; j < c.hi; j++ {
		row := kvp[j*c.stride+c.kOff : j*c.stride+c.kOff+c.hd]
		clear(row)
		row[0] = []float64{-1, 0x1p-1000, -0x1p-1000}[rng.Intn(3)]
	}
}

// Property: every score kernel equals the Go loops in every bit — scores and
// the returned running max — at the specialised width (16), the paper's
// (26, a remainder of 2), widths below and not a multiple of four, over
// every key count 1–40 (so every tail of a 4-lane block) starting past
// zero, strides wider than the head, seeded maxima of every kind including
// both zeros, specials that make some scores NaN or ±Inf, and rows whose
// scores are zeros of both signs.
func TestScoreRowBitExact(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		b := newScoreBufs(t)
		rng := rand.New(rand.NewSource(33))
		seeds := []float64{math.Inf(-1), math.Inf(-1), -3.5, 0, math.Copysign(0, -1), math.NaN(), math.Inf(1)}
		nanScores, zeroMaxes := 0, 0
		for trial := 0; trial < 1400; trial++ {
			hd := []int{16, 26, 1, 2, 3, 4, 7, 12, 33}[trial%9]
			n := 1 + trial%maxScoreKeys
			lo := rng.Intn(maxScoreKeys - n + 1)
			kOff := rng.Intn(2 * hd)
			c := scoreCase{hd: hd, lo: lo, hi: lo + n, kOff: kOff, stride: kOff + hd + rng.Intn(9),
				scale: 1 / math.Sqrt(float64(hd)), maxv: seeds[rng.Intn(len(seeds))]}
			q, kvp := b.operands(c)
			every := []int{0, 30, 3}[trial%3]
			fillKernelInput(rng, q, every)
			fillKernelInput(rng, kvp, every)
			if trial%5 == 0 { // one key row that is certainly a NaN score
				kvp[lo*c.stride+kOff+rng.Intn(hd)] = math.NaN()
			}
			if trial%7 == 3 {
				plantZeroScores(rng, &c, q, kvp)
			}
			want, wantMax := checkScoreRow(t, b, c)
			for _, v := range want[c.lo:c.hi] {
				if math.IsNaN(v) {
					nanScores++
				}
			}
			if wantMax == 0 {
				zeroMaxes++
			}
		}
		if nanScores == 0 || zeroMaxes == 0 {
			t.Fatalf("%d NaN scores, %d zero maxima: the NaN and signed-zero rules of the max are not both exercised", nanScores, zeroMaxes)
		}
	})
}

// When the max of a row is zero, `if v > maxv` keeps the first zero it
// meets — a zero seed, else the first zero score — whatever zeros of the
// other sign follow. Every placement of a zero followed by one of the other
// sign, among negative scores, over lengths that make one group, a group and
// a tail, and several groups.
func TestScoreRowMaxKeepsTheFirstZero(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		b := newScoreBufs(t)
		negZero := math.Copysign(0, -1)
		for _, hd := range []int{16, 5} {
			for _, n := range []int{3, 8, 11, 17} {
				for first := 0; first < n; first++ {
					for second := first + 1; second < n; second++ {
						for _, sign := range []float64{1, -1} {
							for _, seed := range []float64{math.Inf(-1), -1, 0, negZero} {
								c := scoreCase{hd: hd, hi: n, stride: hd, scale: 0x1p-80, maxv: seed}
								q, kvp := b.operands(c)
								for i := range q {
									q[i] = 1
								}
								clear(kvp)
								for j := 0; j < n; j++ {
									kvp[j*hd] = -1
								}
								kvp[first*hd], kvp[second*hd] = sign*0x1p-1000, -sign*0x1p-1000
								checkScoreRow(t, b, c)
							}
						}
					}
				}
			}
		}
	})
}

func FuzzScoreRow(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(0), uint8(0), uint8(0), uint8(29), math.Inf(-1), uint8(0))
	f.Add(int64(2), uint8(26), uint8(5), uint8(13), uint8(3), uint8(8), 0.0, uint8(4))
	f.Add(int64(3), uint8(16), uint8(8), uint8(16), uint8(1), uint8(38), math.Copysign(0, -1), uint8(7))
	f.Add(int64(4), uint8(3), uint8(2), uint8(1), uint8(0), uint8(7), math.NaN(), uint8(2))
	f.Add(int64(5), uint8(33), uint8(7), uint8(60), uint8(39), uint8(0), -2.0, uint8(5))
	f.Add(int64(6), uint8(64), uint8(3), uint8(127), uint8(20), uint8(19), math.Inf(1), uint8(1))
	b := newScoreBufs(f)
	f.Fuzz(func(t *testing.T, seed int64, hd, pad, kOff, lo, n uint8, maxv float64, fill uint8) {
		rng := rand.New(rand.NewSource(seed))
		c := scoreCase{hd: 1 + int(hd)%maxScoreHD, lo: int(lo) % maxScoreKeys, maxv: maxv}
		c.hi = c.lo + 1 + int(n)%(maxScoreKeys-c.lo)
		c.kOff = int(kOff) % (2 * c.hd)
		c.stride = c.kOff + c.hd + int(pad)%9
		c.scale = []float64{1 / math.Sqrt(float64(c.hd)), 0x1p-80, -0.5}[fill/3%3]
		q, kvp := b.operands(c)
		for _, s := range [][]float64{q, kvp} {
			switch fill % 3 {
			case 0:
				fillKernelInput(rng, s, 0)
			case 1:
				fillKernelInput(rng, s, 3)
			case 2:
				for i := range s {
					s[i] = math.Float64frombits(rng.Uint64())
				}
			}
		}
		for _, kc := range kernelChoices {
			if kc.missing() == "" {
				kc.with(t, func() { checkScoreRow(t, b, c) })
			}
		}
	})
}

// A NaN score is stored but never becomes the running max, whichever
// kernel runs, on a short range and on a longer one: Go's `v > maxv`
// is false for NaN.
func TestScoreRowNaNNeverReplacesMax(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		for _, hd := range []int{16, 26, 6} {
			for _, n := range []int{3, 11} {
				q := make([]float64, hd)
				kvp := make([]float64, n*hd)
				for i := range q {
					q[i] = 1
				}
				kvp[0], kvp[hd] = 2, math.NaN() // key 0 scores 2·scale, key 1 NaN, the rest zero
				srow := make([]float64, n)
				maxv := scoreRow(srow, q, kvp, 0, hd, 0, n, hd, 0.5, math.Inf(-1))
				if maxv != 1 || srow[0] != 1 || !math.IsNaN(srow[1]) || slices.ContainsFunc(srow[2:], func(v float64) bool { return v != 0 }) {
					t.Fatalf("hd=%d: scores %v max %v, want [1 NaN 0…] max 1", hd, srow, maxv)
				}
			}
		}
	})
}

// fmaTriple returns a, x, y with a·x + y exactly 0 when the product is
// rounded first and 2⁻⁶⁰ under a fused multiply-add.
func fmaTriple(t *testing.T) (a, x, y float64) {
	a = 1 + 0x1p-30
	x = a
	y = -float64(a * x)
	if fused, unfused := math.FMA(a, x, y), float64(a*x)+y; fused == unfused || unfused != 0 {
		t.Fatalf("triple does not separate fused (%g) from unfused (%g)", fused, unfused)
	}
	return a, x, y
}

// fma rounds x·y + z once on every path: where x·y underflows, the zero it
// rounds to keeps the exact product's sign against a zero accumulator of
// either sign, which the library's software math.FMA (run this under
// GODEBUG=cpu.fma=off) gets wrong against +0. Zero products, the fmaTriple
// and an ordinary rounding are there too.
func TestFMAOneRounding(t *testing.T) {
	negZero := math.Copysign(0, -1)
	a, x, y := fmaTriple(t)
	for _, c := range []struct{ x, y, z, want float64 }{
		{0x1p-600, -0x1p-600, 0, negZero},
		{-0x1p-600, 0x1p-500, 0, negZero},
		{0x1p-600, -0x1p-600, negZero, negZero},
		{-0x1p-600, -0x1p-600, 0, 0},
		{-0x1p-600, -0x1p-600, negZero, 0},
		{0, -1, 0, 0},
		{negZero, 1, negZero, negZero},
		{negZero, 1, 0, 0},
		{0x1p-537, 0x1p-537, 0, 0x1p-1074},
		{a, x, y, 0x1p-60},
		{1 + 0x1p-52, 1 + 0x1p-52, 0, 1 + 0x1p-51},
	} {
		if got := fma(c.x, c.y, c.z); math.Float64bits(got) != math.Float64bits(c.want) {
			t.Errorf("fma(%g, %g, %g) = %g (%#x), want %g (%#x)", c.x, c.y, c.z, got, math.Float64bits(got), c.want, math.Float64bits(c.want))
		}
	}
}

// Every mul-add of a chain is fused, one rounding: the assembly issues
// VFMADD231PD and the Go kernels call fma, so y + a·x is 2⁻⁶⁰ on every
// kernel and every build, where rounding the product first would give 0.
// Each rank position of each blocking (scalar axpy, axpy4, axpy8 and their
// mixes) carries the discriminating product once, surrounded by ranks that
// add +0.0, in three rows: both rows of the AVX-512 kernel's two-row tile
// and the odd row after them, which the one-row loop runs. The score
// kernels and the graph MatMulNT over them carry it in a key's second
// product.
func TestMulAddIsFused(t *testing.T) {
	a, x, y := fmaTriple(t)
	fused := math.FMA(a, x, y)
	eachKernel(t, func(t *testing.T) {
		const rows = 3
		for _, k := range []int{1, 3, 4, 8, 13} {
			for pos := 0; pos < k; pos++ {
				for _, n := range []int{1, 4, 37, 75, 130} {
					arows := make([]float64, rows*k)
					b := make([]float64, k*n)
					out := make([]float64, rows*n)
					for p := range arows {
						arows[p] = 1 // times a +0.0 row of b: adds nothing, fused or not
					}
					for i := 0; i < rows; i++ {
						arows[i*k+pos] = a
					}
					for j := 0; j < n; j++ {
						b[pos*n+j] = x
					}
					for i := range out {
						out[i] = y
					}
					mulRowRange(out, arows, b, 0, rows, k, n, n, 0, false, nil)
					for i, v := range out {
						if v != fused {
							t.Fatalf("k=%d pos=%d n=%d: row %d, out[%d] = %g, want the fused 2^-60", k, pos, n, i/n, i%n, v)
						}
					}
				}
			}
		}
		// Score kernels: lane 0 holds y after its first product and a·x
		// arrives as its second, in every key of a short range and of a
		// longer one. (The attention block kernels' score chain is
		// TestFusedAttentionCoreLaneEdges's last case.)
		for _, hd := range []int{16, 8, 26} {
			for _, n := range []int{1, 11} {
				q := make([]float64, hd)
				kvp := make([]float64, n*hd)
				q[0], q[4] = 1, a
				for j := 0; j < n; j++ {
					kvp[j*hd], kvp[j*hd+4] = y, x
				}
				srow := make([]float64, n)
				scoreRow(srow, q, kvp, 0, hd, 0, n, hd, 1, math.Inf(-1))
				for j, v := range srow {
					if v != fused {
						t.Fatalf("scoreRow hd=%d, %d keys: score[%d] = %g, want the fused 2^-60", hd, n, j, v)
					}
				}
			}
		}
		if got := MatMulNT(FromSlice(1, 5, []float64{1, 0, 0, 0, a}), FromSlice(1, 5, []float64{y, 0, 0, 0, x})).Data[0]; got != fused {
			t.Fatalf("MatMulNT: %g, want the fused 2^-60", got)
		}
	})
}

// The callers above the kernels — a packed projection with a bias, the
// attention core over random spans, GELU over the projection and the graph
// softmax over a row of it — produce the same bits whichever kernels run, at
// the repro head width, the paper's, and an odd one; and on each, the
// projection with its bias in the kernel's epilogue equals the composed
// AddRowVector(MatMul(x, W), b).
func TestLinearAndAttentionSameBitsOnBothKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	ws := NewWorkspace()
	for _, hd := range []int{16, 26, 5} {
		const lq, heads = 29, 3
		h := heads * hd
		x := make([]float64, lq*h)
		w := make([]float64, h*3*h)
		bias := make([]float64, 3*h)
		fillKernelInput(rng, x, 50) // the occasional exact zero coefficient
		fillKernelInput(rng, w, 0)
		fillKernelInput(rng, bias, 0)
		sh := AttnShape{Lq: lq, Lkv: lq, Heads: heads, HeadDim: hd, QStride: 3 * h, KOff: h, VOff: 2 * h, KVStride: 3 * h, Scale: 1 / math.Sqrt(float64(hd))}
		spans := randSpans(rng, lq, lq, 5)
		var want []float64
		var wantOn string
		for _, kc := range kernelChoices {
			if why := kc.missing(); why != "" {
				t.Logf("%s: %s", kc.name, why)
				continue
			}
			proj := make([]float64, lq*3*h)
			got := make([]float64, lq*h, lq*h+2*len(proj))
			var lin, composed []float64
			kc.with(t, func() {
				LinearInto(proj, x, lq, h, w, 3*h, 0, 3*h, bias)
				lin = append(lin, proj...)
				composed = AddRowVector(MatMul(FromSlice(lq, h, x), FromSlice(h, 3*h, w)), FromSlice(1, 3*h, bias)).Data
				FusedAttentionCore(ws, got, proj, proj, sh, spans)
				ws.Reset()
				got = append(got, SoftmaxRows(FromSlice(lq, 3*h, proj), nil).Data...)
				FusedGELUInPlace(proj)
				got = append(got, proj...)
			})
			if i := firstBitDiff(lin, composed); i >= 0 {
				t.Fatalf("head width %d on %s: LinearInto[%d] = %v, composed %v", hd, kc.name, i, lin[i], composed[i])
			}
			if want == nil {
				want, wantOn = got, kc.name
			} else if i := firstBitDiff(got, want); i >= 0 {
				t.Fatalf("head width %d: output[%d] = %v on %s, %v on %s", hd, i, got[i], kc.name, want[i], wantOn)
			}
		}
	}
}

//go:build amd64

package tensor

import "math"

// Assembly kernels (kernels_amd64.s). Pointers address exactly the elements
// the kernel's contract names; the Go wrappers below slice their operands
// to that extent first, so a bad shape panics here like the Go loops would.

//go:noescape
func mulRowsAsm(out, a, b *float64, rows, k, n, bstride int, zero bool, bias *float64)

//go:noescape
func mulRows512Asm(out, a, b *float64, rows, k, n, bstride int, zero bool, bias *float64)

//go:noescape
func scoreRowAsm(srow, q, k *float64, nkeys, kstride, hd int, scale, maxv float64) float64

//go:noescape
func expSubFMAAsm(p *float64, n int, sub float64) int

//go:noescape
func geluFMAAsm(p *float64, n int) int

//go:noescape
func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbvAsm() (eax, edx uint32)

// haveAVX2 selects the assembly kernels; without it every kernel runs its Go
// implementation. Tests flip it to run both on the
// same inputs.
var haveAVX2 = detectAVX2()

// detectAVX2 reports AVX2 support with OS-enabled YMM state (OSXSAVE set
// and XCR0 advertising XMM+YMM).
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuidAsm(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, c, _ := cpuidAsm(1, 0)
	const osxsave = 1 << 27
	if c&osxsave == 0 {
		return false
	}
	xcr0, _ := xgetbvAsm()
	if xcr0&0x6 != 0x6 {
		return false
	}
	_, b, _, _ := cpuidAsm(7, 0)
	return b&(1<<5) != 0 // AVX2
}

// haveAVX512 selects mulRows512Asm for the matmul rows (which implies
// haveAVX2; every other kernel stays on AVX2). Tests flip it with haveAVX2.
var haveAVX512 = haveAVX2 && detectAVX512()

// detectAVX512 reports AVX512F with the OS saving the opmask and all of the
// ZMM state: XCR0 bits 1–2 (XMM, YMM), 5 (opmask), 6 (ZMM0–15 upper halves)
// and 7 (ZMM16–31). detectAVX2 has checked OSXSAVE and the CPUID leaf.
func detectAVX512() bool {
	if xcr0, _ := xgetbvAsm(); xcr0&0xe6 != 0xe6 {
		return false
	}
	_, b, _, _ := cpuidAsm(7, 0)
	return b&(1<<16) != 0 // AVX512F
}

// mathRowsOff is why expSubRow and geluRow run the scalar library calls, or
// "" when they run expSubFMAAsm and geluFMAAsm (which implies AVX2). The
// assembly replays the FMA branch of math.Exp, and which branch the library
// takes is its own business (CPUID today, but also GODEBUG=cpu.fma=off, or a
// release that changes either function), so the kernels are selected by
// asking the library: probeMathRows compares them with it, bit for bit, on
// arguments that tell the variants apart. One verdict for the process, so a
// row never mixes the two. Tests flip it to run both on the same inputs.
var mathRowsOff = probeMathRows()

func probeMathRows() string {
	if !haveAVX2 {
		return "no AVX2"
	}
	if _, _, c, _ := cpuidAsm(1, 0); c&(1<<12) == 0 {
		return "no FMA"
	}
	exp, gelu := expProbeArgs, geluProbeArgs
	expSubFMAAsm(&exp[0], len(exp), 0)
	geluFMAAsm(&gelu[0], len(gelu))
	for i, x := range expProbeArgs {
		if math.Float64bits(exp[i]) != math.Float64bits(math.Exp(x)) {
			return "probe mismatch"
		}
	}
	for i, v := range geluProbeArgs {
		if math.Float64bits(gelu[i]) != math.Float64bits(geluScalar(v)) {
			return "probe mismatch"
		}
	}
	return ""
}

// Arguments inside the kernels' vector ranges on which the ways the library
// could differ from them show. On the first three rows of expProbeArgs
// math.Exp's non-FMA branch differs from its FMA branch in the last place (as
// it does on 9.3 % of softmax-range arguments: …a485 against …a486 on the
// first); the last row is the range's ends and middle. The first four rows
// of geluProbeArgs alternate tanh's arms, so every block blends: on the even
// columns (|u| ≥ 0.625) that same difference survives 1 − 2/(exp(2z) + 1), on
// the odd ones a rational evaluated with contracted multiply-adds would
// differ. The last row is the two neighbours, of each sign, between which
// u = c·(v + 0.044715·v³) crosses the cut.
var (
	expProbeArgs = [...]float64{
		-8.529451372330323, -3.7990673860352824, -6.559269962953987, -3.202149335319489,
		-7.340810464251763, -5.014415480186494, -14.360629121168557, -0.1497611171529497,
		-1.605471338659004, -27.243262843745846, -16.281966072334797, -3.101755102041939,
		-708, 0, 1, 708,
	}
	geluProbeArgs = [...]float64{
		1.0564440647297513, -0.6294913518035368, -1.025517280049951, -0.5968520438792029,
		-1.406102516864119, -0.3882836916117408, -1.9768496095015715, 0.6210128824626382,
		1.604062725871022, 0.28344882512600716, 0.877686718083507, 0.7296624914540806,
		-0.7644575366359357, -0.6621564284441689, 0.7669923508098127, 0.5868766869447135,
		0.7634258809972125, 0.7634258809972126, -0.7634258809972125, -0.7634258809972126,
	}
)

// Kernels names the kernels this process runs, for start-up lines and
// /v1/stats: a replica that is slow because of a GODEBUG, a rebuild or an
// older CPU says so. "avx512" leads when the matmul rows run on it; the
// string ends in " fma exp gelu" exactly when the exp and GELU rows run
// vectorised.
func Kernels() string {
	if !haveAVX2 {
		return "go (no AVX2)"
	}
	s := "avx2"
	if haveAVX512 {
		s = "avx512 avx2"
	}
	if mathRowsOff != "" {
		return s + ", exp and gelu on scalar calls (" + mathRowsOff + ")"
	}
	return s + " fma exp gelu"
}

func mulRowRange(out, a, b []float64, lo, hi, k, n, bstride, c0 int, zero bool, bias []float64) {
	if !haveAVX2 || hi <= lo || k <= 0 || n <= 0 {
		mulRowRangeGeneric(out, a, b, lo, hi, k, n, bstride, c0, zero, bias)
		return
	}
	o, x, w := out[lo*n:hi*n], a[lo*k:hi*k], b[c0:(k-1)*bstride+c0+n]
	var bp *float64
	if bias != nil {
		bp = &bias[:n][0]
	}
	if haveAVX512 {
		mulRows512Asm(&o[0], &x[0], &w[0], hi-lo, k, n, bstride, zero, bp)
	} else {
		mulRowsAsm(&o[0], &x[0], &w[0], hi-lo, k, n, bstride, zero, bp)
	}
}

func scoreRow(srow, qrow, kvp []float64, kOff, stride, lo, hi, headDim int, scale, maxv float64) float64 {
	if !haveAVX2 || hi <= lo || headDim <= 0 {
		return scoreRowGo(srow, qrow, kvp, kOff, stride, lo, hi, headDim, scale, maxv)
	}
	s, q, keys := srow[lo:hi], qrow[:headDim], kvp[lo*stride+kOff:(hi-1)*stride+kOff+headDim]
	return scoreRowAsm(&s[0], &q[0], &keys[0], hi-lo, stride, headDim, scale, maxv)
}

// The assembly stops at the first four-element block with a lane outside
// its range; that block runs through the scalar function and the kernel
// takes up again after it.
func expSubRow(p []float64, sub float64) {
	if mathRowsOff != "" {
		expSubRowGo(p, sub)
		return
	}
	for len(p) > 0 {
		p = p[expSubFMAAsm(&p[0], len(p), sub):]
		blk := p[:min(4, len(p))]
		expSubRowGo(blk, sub)
		p = p[len(blk):]
	}
}

func geluRow(p []float64) {
	if mathRowsOff != "" {
		geluRowGo(p)
		return
	}
	for len(p) > 0 {
		p = p[geluFMAAsm(&p[0], len(p)):]
		blk := p[:min(4, len(p))]
		geluRowGo(blk)
		p = p[len(blk):]
	}
}

//go:build amd64

package tensor

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
func scoreRow512Asm(srow, q, k *float64, nkeys, kstride int, scale, maxv float64) float64

//go:noescape
func expSub512Asm(p *float64, n int, sub float64) int

//go:noescape
func gelu512Asm(p *float64, n int) int

//go:noescape
func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbvAsm() (eax, edx uint32)

// haveAVX2 selects the assembly kernels; without it every kernel runs its Go
// implementation. haveFMA (which implies it) selects the exp and GELU row
// kernels: they replay Exp and tanh, the same on every host, so CPUID alone
// decides. Tests flip both to run every kernel on the same inputs.
var haveAVX2, haveFMA = detectAVX2()

// detectAVX2 reports AVX2 support with OS-enabled YMM state (OSXSAVE set
// and XCR0 advertising XMM+YMM), and with it FMA.
func detectAVX2() (avx2, fma bool) {
	maxLeaf, _, _, _ := cpuidAsm(0, 0)
	_, _, c, _ := cpuidAsm(1, 0)
	const osxsave, fmaBit = 1 << 27, 1 << 12
	if maxLeaf < 7 || c&osxsave == 0 {
		return false, false
	}
	if xcr0, _ := xgetbvAsm(); xcr0&0x6 != 0x6 {
		return false, false
	}
	_, b, _, _ := cpuidAsm(7, 0)
	avx2 = b&(1<<5) != 0
	return avx2, avx2 && c&fmaBit != 0
}

// haveAVX512 (which implies haveAVX2) selects the 8-lane kernels:
// mulRows512Asm for the matmul rows, scoreRow512Asm for score ranges of eight
// keys or more at head width 16 (other ranges stay on scoreRowAsm), and,
// where haveFMA also holds, gelu512Asm and expSub512Asm for the GELU and exp
// rows. Tests flip it with haveAVX2.
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

// Kernels names the kernels this process runs, for start-up lines and
// /v1/stats: a replica that is slow because of a rebuild or an older CPU
// says so. "avx512" leads when the row kernels run eight lanes wide (the
// matmul and score rows; the exp and GELU rows too when the string also ends
// in " fma exp gelu", which it does exactly when they run vectorised).
func Kernels() string {
	if !haveAVX2 {
		return "go (no AVX2)"
	}
	s := "avx2"
	if haveAVX512 {
		s = "avx512 avx2"
	}
	if !haveFMA {
		return s + ", exp and gelu on scalar calls (no FMA)"
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

// scoreRow runs a range of eight or more keys 16 wide (the repro head) on
// the 8-lane kernel where haveAVX512, and any other range on the AVX2 one.
// The 8-lane kernel's max is the sequential fold's value; when that value is
// a zero, the fold kept the first zero it met (`v > maxv` is false between
// zeros), which firstZero finds again.
func scoreRow(srow, qrow, kvp []float64, kOff, stride, lo, hi, headDim int, scale, maxv float64) float64 {
	if !haveAVX2 || hi <= lo || headDim <= 0 {
		return scoreRowGo(srow, qrow, kvp, kOff, stride, lo, hi, headDim, scale, maxv)
	}
	s, q, keys := srow[lo:hi], qrow[:headDim], kvp[lo*stride+kOff:(hi-1)*stride+kOff+headDim]
	if !haveAVX512 || headDim != 16 || len(s) < 8 {
		return scoreRowAsm(&s[0], &q[0], &keys[0], len(s), stride, headDim, scale, maxv)
	}
	if m := scoreRow512Asm(&s[0], &q[0], &keys[0], len(s), stride, scale, maxv); m != 0 {
		return m
	}
	return firstZero(maxv, s)
}

// firstZero returns the first zero of maxv, s[0], s[1], …; one exists.
func firstZero(maxv float64, s []float64) float64 {
	if maxv == 0 {
		return maxv
	}
	for _, v := range s {
		if v == 0 {
			return v
		}
	}
	panic("tensor: score max is zero but no score is")
}

// The assembly (where haveFMA) stops at the first block (four elements, or
// eight on the AVX-512 kernels) with a lane outside its range; that block
// runs through the scalar function and the kernel takes up again after it.
// Without FMA every block is scalar.
func expSubRow(p []float64, sub float64) {
	for len(p) > 0 {
		w := 4
		switch {
		case haveFMA && haveAVX512:
			p, w = p[expSub512Asm(&p[0], len(p), sub):], 8
		case haveFMA:
			p = p[expSubFMAAsm(&p[0], len(p), sub):]
		}
		blk := p[:min(w, len(p))]
		expSubRowGo(blk, sub)
		p = p[len(blk):]
	}
}

func geluRow(p []float64) {
	for len(p) > 0 {
		w := 4
		switch {
		case haveFMA && haveAVX512:
			p, w = p[gelu512Asm(&p[0], len(p)):], 8
		case haveFMA:
			p = p[geluFMAAsm(&p[0], len(p)):]
		}
		blk := p[:min(w, len(p))]
		geluRowGo(blk)
		p = p[len(blk):]
	}
}

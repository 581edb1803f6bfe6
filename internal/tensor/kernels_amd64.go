//go:build amd64

package tensor

// Assembly kernels (kernels_amd64.s). Pointers address exactly the elements
// the kernel's contract names; the Go wrappers below slice their operands
// to that extent first, so a bad shape panics here like the Go loops would.

//go:noescape
func mulRowsAsm(out, a, b *float64, rows, k, n, bstride int, zero bool)

//go:noescape
func scoreRowAsm(srow, q, k *float64, nkeys, kstride, hd int, scale, maxv float64) float64

//go:noescape
func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbvAsm() (eax, edx uint32)

// haveAVX2 selects the assembly kernels, fp64 and int8 alike; without it
// every kernel runs its Go implementation. Tests flip it to run both on the
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

func mulRowRange(out, a, b []float64, lo, hi, k, n, bstride, c0 int, zero bool) {
	if !haveAVX2 || hi <= lo || k <= 0 || n <= 0 {
		mulRowRangeGeneric(out, a, b, lo, hi, k, n, bstride, c0, zero)
		return
	}
	o, x, w := out[lo*n:hi*n], a[lo*k:hi*k], b[c0:(k-1)*bstride+c0+n]
	mulRowsAsm(&o[0], &x[0], &w[0], hi-lo, k, n, bstride, zero)
}

func scoreRow(srow, qrow, kvp []float64, kOff, stride, lo, hi, headDim int, scale, maxv float64) float64 {
	if !haveAVX2 || hi <= lo || headDim <= 0 {
		return scoreRowGo(srow, qrow, kvp, kOff, stride, lo, hi, headDim, scale, maxv)
	}
	s, q, keys := srow[lo:hi], qrow[:headDim], kvp[lo*stride+kOff:(hi-1)*stride+kOff+headDim]
	return scoreRowAsm(&s[0], &q[0], &keys[0], hi-lo, stride, headDim, scale, maxv)
}

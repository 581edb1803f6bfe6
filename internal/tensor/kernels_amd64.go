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
func expSub512Asm(p *float64, n int, sub float64) int

//go:noescape
func gelu512Asm(p *float64, n int) int

//go:noescape
func attnScores512Asm(s, q *float64, qstride, rows int, ka *float64, na int, kb *float64, nb, kstride int, scale float64, maxv *float64)

//go:noescape
func attnExp512Asm(p *float64, n int, maxv, sum *float64) int

//go:noescape
func attnOut512Asm(out *float64, ostride, rows int, e, va *float64, na int, vb *float64, nb, vstride int, maxv, sum *float64)

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
// mulRows512Asm for the matmul rows, the attention block kernels for
// FusedAttentionCore at head width 16 (attnBlocks; other widths keep the
// per-row path on the AVX2 score kernel), and, where haveFMA also holds,
// gelu512Asm and expSub512Asm for the GELU and exp rows. Tests flip it with
// haveAVX2.
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
// matmul rows, and attention eight query rows per vector at head width 16;
// the exp and GELU rows too when the string also ends in " fma exp gelu",
// which it does exactly when they run vectorised).
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

func scoreRow(srow, qrow, kvp []float64, kOff, stride, lo, hi, headDim int, scale, maxv float64) float64 {
	if !haveAVX2 || hi <= lo || headDim <= 0 {
		return scoreRowGo(srow, qrow, kvp, kOff, stride, lo, hi, headDim, scale, maxv)
	}
	s, q, keys := srow[lo:hi], qrow[:headDim], kvp[lo*stride+kOff:(hi-1)*stride+kOff+headDim]
	return scoreRowAsm(&s[0], &q[0], &keys[0], len(s), stride, headDim, scale, maxv)
}

// attnBlocks runs FusedAttentionCore eight query rows of a span at a time,
// one row per lane, where haveAVX512 holds and heads are 16 wide, and
// reports whether it ran; the per-row path runs every other case. The rows
// of a span see the same keys, and each lane performs the per-row path's
// scalar operations in its order (kernels_amd64.s), so the bits are the
// same. A block whose rows see no key is zeros, as a per-row one is.
func attnBlocks(ws *Workspace, dst, qp, kvp []float64, sh AttnShape, spans []AttnSpan) bool {
	const hdim = 16
	if !haveAVX512 || sh.HeadDim != hdim {
		return false
	}
	width := sh.Heads * hdim
	s := ws.Take(8 * sh.Lkv)
	var maxv, sum [8]float64
	for h := 0; h < sh.Heads; h++ {
		qOff, kOff, vOff := sh.QOff+h*hdim, sh.KOff+h*hdim, sh.VOff+h*hdim
		for _, sp := range spans {
			na, nb := sp.A[1]-sp.A[0], sp.B[1]-sp.B[0]
			ka, va := laneRows(kvp, sp.A, sh.KVStride, kOff), laneRows(kvp, sp.A, sh.KVStride, vOff)
			kb, vb := laneRows(kvp, sp.B, sh.KVStride, kOff), laneRows(kvp, sp.B, sh.KVStride, vOff)
			e := s[:8*(na+nb)]
			for r0 := sp.RowLo; r0 < sp.RowHi; r0 += 8 {
				rows := min(8, sp.RowHi-r0)
				out := dst[r0*width+h*hdim : (r0+rows-1)*width+h*hdim+hdim]
				if len(e) == 0 {
					for r := 0; r < rows; r++ {
						clear(out[r*width : r*width+hdim])
					}
					continue
				}
				q := qp[r0*sh.QStride+qOff : (r0+rows-1)*sh.QStride+qOff+hdim]
				attnScores512Asm(&e[0], &q[0], sh.QStride, rows, ka, na, kb, nb, sh.KVStride, sh.Scale, &maxv[0])
				attnExp(e, &maxv, &sum)
				attnOut512Asm(&out[0], width, rows, &e[0], va, na, vb, nb, sh.KVStride, &maxv[0], &sum[0])
			}
		}
	}
	return true
}

// laneRows returns the first element of the 16-wide rows of kvp in
// [kr[0], kr[1]) at column off, stride apart, or nil for an empty range.
// Slicing them first bounds what the block kernels read.
func laneRows(kvp []float64, kr [2]int, stride, off int) *float64 {
	if kr[0] == kr[1] {
		return nil
	}
	return &kvp[kr[0]*stride+off : (kr[1]-1)*stride+off+16][0]
}

// attnExp sets e[j] = Exp(e[j] − maxv[j%8]) and sum[l] to the in-order sum of
// lane l's results from +0.0, on attnExp512Asm where haveFMA and the scalar
// Exp for each block it declines (for every block without FMA).
func attnExp(e []float64, maxv, sum *[8]float64) {
	*sum = [8]float64{}
	for len(e) > 0 {
		if haveFMA {
			if e = e[attnExp512Asm(&e[0], len(e), &maxv[0], &sum[0]):]; len(e) == 0 {
				return
			}
		}
		for l, v := range e[:8] {
			x := Exp(v - maxv[l])
			e[l] = x
			sum[l] += x
		}
		e = e[8:]
	}
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

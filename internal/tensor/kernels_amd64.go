//go:build amd64

package tensor

// Assembly kernels (kernels_amd64.s). Pointers address exactly the elements
// the kernel's contract names; the Go wrappers below slice their operands
// to that extent first, so a bad shape panics here like the Go loops would.

//go:noescape
func mulRowsAsm(out, a, b *float64, rows, k, astride, n, bstride int, zero bool, bias *float64)

//go:noescape
func mulRows512Asm(out, a, b *float64, rows, k, astride, n, bstride int, zero bool, bias *float64)

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
func addLayerNorm512Asm(dst, a, b, gamma, beta *float64, rows, cols int, eps float64, ms *float64)

//go:noescape
func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbvAsm() (eax, edx uint32)

// haveAVX2 selects the assembly kernels, which need AVX2 and FMA: every
// mul-add chain is a VFMADD231PD, and the exp and GELU rows replay Exp and
// tanh, the same on every host, so CPUID alone decides. Without it every
// kernel runs its Go implementation on math.FMA, which is software where
// hostFMA is false. Tests flip haveAVX2 to run every kernel on the same
// inputs.
var haveAVX2, hostFMA = detectAVX2()

// detectAVX2 reports AVX2 and FMA support with OS-enabled YMM state
// (OSXSAVE set and XCR0 advertising XMM+YMM), and FMA on its own.
func detectAVX2() (asm, fma bool) {
	maxLeaf, _, _, _ := cpuidAsm(0, 0)
	_, _, c, _ := cpuidAsm(1, 0)
	const osxsave, fmaBit = 1 << 27, 1 << 12
	if c&osxsave == 0 {
		return false, false
	}
	if xcr0, _ := xgetbvAsm(); xcr0&0x6 != 0x6 {
		return false, false
	}
	fma = c&fmaBit != 0
	if maxLeaf < 7 {
		return false, fma
	}
	_, b, _, _ := cpuidAsm(7, 0)
	return fma && b&(1<<5) != 0, fma
}

// l1Size and l1Way are the L1 data cache's bytes and the bytes of one of its
// ways (sets × line size), which size rankBlock's K blocks.
var l1Size, l1Way = detectL1D()

// detectL1D reads the level-1 data cache from CPUID's deterministic cache
// parameters (leaf 4, or 0x8000001D where leaf 4 is reserved, as on AMD),
// and assumes 32 KiB of eight ways where neither describes one, or where
// the one it describes has a way smaller than a cache line.
func detectL1D() (size, way int) {
	maxLeaf, _, _, _ := cpuidAsm(0, 0)
	maxExt, _, _, _ := cpuidAsm(0x80000000, 0)
	for _, leaf := range []uint32{4, 0x8000001d} {
		if (leaf < 0x80000000 && leaf > maxLeaf) || (leaf >= 0x80000000 && leaf > maxExt) {
			continue
		}
		for sub := uint32(0); sub < 8; sub++ {
			a, b, c, _ := cpuidAsm(leaf, sub)
			typ, level := a&0x1f, a>>5&7
			if typ == 0 {
				break
			}
			if level == 1 && (typ == 1 || typ == 3) {
				ways, way := int(b>>22)+1, (int(b>>12&0x3ff)+1)*(int(b&0xfff)+1)*(int(c)+1)
				if way < 64 { // zeroed fields: no cache's geometry
					break
				}
				return ways * way, way
			}
		}
	}
	return 32 << 10, 4 << 10
}

// haveAVX512 (which implies haveAVX2) selects the 8-lane kernels:
// mulRows512Asm for the matmul rows, the attention block kernels for
// FusedAttentionCore at head width 16 (attnBlocks; other widths keep the
// per-row path on the AVX2 score kernel), gelu512Asm and expSub512Asm for
// the GELU and exp rows, and addLayerNorm512Asm for FusedAddLayerNormInto
// (which has no AVX2 kernel: without AVX-512 it runs addLayerNormGo). Tests
// flip it with haveAVX2.
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
// matmul, exp and GELU rows, attention eight query rows per vector at head
// width 16, and the fused add-and-LayerNorm eight rows per vector); the
// string ends in " fma exp gelu" exactly when the assembly runs. "go (no
// FMA)" is the Go kernels on software math.FMA, the slowest case; "go (no
// AVX2)" the Go kernels on hardware FMA.
func Kernels() string {
	switch {
	case haveAVX512:
		return "avx512 avx2 fma exp gelu"
	case haveAVX2:
		return "avx2 fma exp gelu"
	case !hostFMA:
		return "go (no FMA)"
	}
	return "go (no AVX2)"
}

// mulRowRange runs the rows through the row kernel one K block at a time
// (rankBlock): the first block starts the chains (from +0.0 when zero is
// set), each later one continues them from out, and only the last adds the
// bias. A stored float64 is the chain's value, so every output element still
// runs one chain over the k ranks in ascending order: the bits are those of
// one pass.
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
	kb := rankBlock(hi-lo, k, n, bstride)
	for p := 0; p < k; p += kb {
		kk, last := min(kb, k-p), p+kb >= k
		bb := bp
		if !last {
			bb = nil
		}
		if haveAVX512 {
			mulRows512Asm(&o[0], &x[p], &w[p*bstride], hi-lo, kk, k, n, bstride, zero && p == 0, bb)
		} else {
			mulRowsAsm(&o[0], &x[p], &w[p*bstride], hi-lo, kk, k, n, bstride, zero && p == 0, bb)
		}
	}
}

// rankBlock is how many ranks of b one pass of the AVX-512 row kernel takes:
// all k, unless its 64-column tile's k×64 slab of b — which every row of the
// pass reads again — would not stay in L1. Then k is cut into the fewest
// blocks of at most 2/3 of the L1 the slab can use (the rest holds the
// streamed rows of a and out), evened out so the last block is not a sliver,
// and never under one rank. The slab's ranks are bstride·8 bytes apart, so
// they start at only way/gcd(bstride·8, way) offsets of a cache way (sets ×
// line): a stride of 128 columns puts a 64-column tile in half of the sets,
// and half of L1 is what it can use (DESIGN.md §8). One or two rows read the
// slab once whatever the blocking, so they take all k. The AVX2 kernel takes
// all k too: blocking was measured only on the AVX-512 one.
func rankBlock(rows, k, n, bstride int) int {
	slab := 8 * min(n, 64)
	reach := min(l1Way, l1Way/gcd(8*bstride, l1Way)*slab)
	budget := max(slab, l1Size/l1Way*reach*2/3)
	if !haveAVX512 || rows <= 2 || k*slab <= budget {
		return k
	}
	blocks := (k*slab + budget - 1) / budget
	return (k + blocks - 1) / blocks
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
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
// lane l's results from +0.0, on attnExp512Asm and the scalar Exp for each
// block it declines.
func attnExp(e []float64, maxv, sum *[8]float64) {
	*sum = [8]float64{}
	for len(e) > 0 {
		if e = e[attnExp512Asm(&e[0], len(e), &maxv[0], &sum[0]):]; len(e) == 0 {
			return
		}
		for l, v := range e[:8] {
			x := Exp(v - maxv[l])
			e[l] = x
			sum[l] += x
		}
		e = e[8:]
	}
}

// addLayerNorm runs FusedAddLayerNormInto on addLayerNorm512Asm where
// haveAVX512 holds (rows in lanes for the mean and variance chains, along
// the row for the add and the normalise), and on addLayerNormGo elsewhere.
func addLayerNorm(dst, a, b, gamma, beta []float64, rows, cols int, eps float64) {
	if !haveAVX512 || rows <= 0 || cols <= 0 {
		addLayerNormGo(dst, a, b, gamma, beta, rows, cols, eps)
		return
	}
	n := rows * cols
	d, x := dst[:n], a[:n]
	var bp *float64
	if b != nil {
		bp = &b[:n][0]
	}
	var ms [24]float64
	addLayerNorm512Asm(&d[0], &x[0], bp, &gamma[:cols][0], &beta[:cols][0], rows, cols, eps, &ms[0])
}

// The assembly stops at the first block (four elements, or eight on the
// AVX-512 kernels) with a lane outside its range; that block runs through
// the scalar function and the kernel takes up again after it. Without the
// assembly every block is scalar.
func expSubRow(p []float64, sub float64) {
	for len(p) > 0 {
		w := 4
		switch {
		case haveAVX512:
			p, w = p[expSub512Asm(&p[0], len(p), sub):], 8
		case haveAVX2:
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
		case haveAVX512:
			p, w = p[gelu512Asm(&p[0], len(p)):], 8
		case haveAVX2:
			p = p[geluFMAAsm(&p[0], len(p)):]
		}
		blk := p[:min(w, len(p))]
		geluRowGo(blk)
		p = p[len(blk):]
	}
}

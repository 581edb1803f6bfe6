// Fused NoGrad kernels for the inference fast path. Each primitive here
// replicates, element for element, the floating-point operation sequence of
// the composed autograd ops it replaces (MatMul+AddRowVector,
// MatMulNT+Scale+SoftmaxRows+MatMul, Add+LayerNorm, ...), so fast-path
// outputs are bit-exact against the composed ops — enforced by fused_test.go.
// The wins come from everything around the arithmetic: no per-op tensor and
// graph bookkeeping, no materialized per-head score matrices or column
// slices, workspace scratch instead of zeroed arena buffers, and attention
// that visits only the key spans a query row can see (AttnSpan).
package tensor

import (
	"fmt"
	"math"
)

// NoGrad reports whether none of the given tensors require grad; nil
// entries are allowed and ignored. It is the whole rule by which a layer
// picks the fused kernels over the composed autograd ops.
func NoGrad(ts ...*Tensor) bool {
	for _, t := range ts {
		if t != nil && t.requiresGrad {
			return false
		}
	}
	return true
}

// InferenceResult builds an op-output tensor for the fast path: its buffer
// is arena-backed (contents UNSPECIFIED — the caller must fully overwrite
// it) and the given parents are recorded so ReleaseGraph can walk and
// recycle fused graphs exactly like composed ones. No backward closure is
// attached; it panics if any parent requires grad.
func InferenceResult(rows, cols int, parents ...*Tensor) *Tensor {
	for _, p := range parents {
		if p.requiresGrad {
			panic("tensor: InferenceResult with a grad-requiring parent")
		}
	}
	data, pooled := allocDataDirty(rows * cols)
	return &Tensor{Rows: rows, Cols: cols, Data: data, pooled: pooled, parents: parents}
}

// allocDataDirty is allocData without the zeroing pass; fused kernels
// overwrite every element of their outputs, so clearing recycled buffers
// would be pure overhead.
func allocDataDirty(n int) ([]float64, bool) {
	if n < 1<<arenaMinClass || n > 1<<arenaMaxClass || !arenaEnabled.Load() {
		return make([]float64, n), false
	}
	c := sizeClass(n)
	if p, _ := arenaPools[c].Get().(*[]float64); p != nil {
		return (*p)[:n], true
	}
	return make([]float64, n, 1<<c), true
}

// axpy4 computes y += a0*x0 + a1*x1 + a2*x2 + a3*x3 elementwise: one
// left-associative chain per element, each product fused into it with fma
// (mathfn.go) — one rounding per rank, the same on every platform, in
// hardware or in software, so no compiler's choice to contract or not can
// change a bit. Every build sees the rounding
// sequence of four successive axpy calls, which keeps the register-blocked
// kernels bit-exact against the one-rank-at-a-time reference and the Go
// kernels against the assembly's VFMADD231PD.
func axpy4(a0, a1, a2, a3 float64, x0, x1, x2, x3, y []float64) {
	n := len(y)
	x0, x1, x2, x3 = x0[:n], x1[:n], x2[:n], x3[:n]
	for j := 0; j < n; j++ {
		y[j] = fma(a3, x3[j], fma(a2, x2[j], fma(a1, x1[j], fma(a0, x0[j], y[j]))))
	}
}

// axpy8 is two fused axpy4 steps: y += Σ a_i*x_i over eight ranks, one
// left-associative chain per element — bitwise identical to eight
// successive axpy calls, with half the passes over y.
func axpy8(a0, a1, a2, a3, a4, a5, a6, a7 float64, x0, x1, x2, x3, x4, x5, x6, x7, y []float64) {
	n := len(y)
	x0, x1, x2, x3 = x0[:n], x1[:n], x2[:n], x3[:n]
	x4, x5, x6, x7 = x4[:n], x5[:n], x6[:n], x7[:n]
	for j := 0; j < n; j++ {
		acc := fma(a3, x3[j], fma(a2, x2[j], fma(a1, x1[j], fma(a0, x0[j], y[j]))))
		y[j] = fma(a7, x7[j], fma(a6, x6[j], fma(a5, x5[j], fma(a4, x4[j], acc))))
	}
}

// mulRowRange (per platform: the AVX-512 row kernel when the CPU has it, else
// the AVX2 one, else mulRowRangeGeneric) computes out[lo:hi) rows of A(m×k) ×
// B, where B's rows have stride bstride and the product reads B columns
// [c0, c0+n). When zero is set the output rows are cleared first (out =),
// otherwise accumulated (out +=). Each output element is one chain over the
// k ranks in ascending order, each rank's product fused into it
// (acc = FMA(a, b, acc)). Ranks with a zero A coefficient are skipped —
// exactly as the scalar kernel does — because adding a +0.0 term is not a
// bitwise no-op for -0.0 outputs. bias, nil or n long, is added to each
// row's finished chains, one rounded add per element: out[i][j] = chain +
// bias[j].
//
// mulRowRangeGeneric is the Go implementation and the reference the assembly
// is tested against: ranks are register-blocked eight and four at a time
// (axpy8/axpy4), and a rank block containing any zero falls back to the
// scalar order for those ranks.
func mulRowRangeGeneric(out, a, b []float64, lo, hi, k, n, bstride, c0 int, zero bool, bias []float64) {
	for i := lo; i < hi; i++ {
		orow := out[i*n : (i+1)*n]
		if zero {
			for x := range orow {
				orow[x] = 0
			}
		}
		arow := a[i*k : (i+1)*k]
		p := 0
		for ; p+8 <= k; p += 8 {
			a0, a1, a2, a3 := arow[p], arow[p+1], arow[p+2], arow[p+3]
			a4, a5, a6, a7 := arow[p+4], arow[p+5], arow[p+6], arow[p+7]
			if a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0 || a4 == 0 || a5 == 0 || a6 == 0 || a7 == 0 {
				for q := p; q < p+8; q++ {
					if av := arow[q]; av != 0 {
						axpy(av, b[q*bstride+c0:q*bstride+c0+n], orow)
					}
				}
				continue
			}
			base := p * bstride
			axpy8(a0, a1, a2, a3, a4, a5, a6, a7,
				b[base+c0:base+c0+n],
				b[base+bstride+c0:base+bstride+c0+n],
				b[base+2*bstride+c0:base+2*bstride+c0+n],
				b[base+3*bstride+c0:base+3*bstride+c0+n],
				b[base+4*bstride+c0:base+4*bstride+c0+n],
				b[base+5*bstride+c0:base+5*bstride+c0+n],
				b[base+6*bstride+c0:base+6*bstride+c0+n],
				b[base+7*bstride+c0:base+7*bstride+c0+n],
				orow)
		}
		for ; p+4 <= k; p += 4 {
			a0, a1, a2, a3 := arow[p], arow[p+1], arow[p+2], arow[p+3]
			if a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0 {
				for q := p; q < p+4; q++ {
					if av := arow[q]; av != 0 {
						axpy(av, b[q*bstride+c0:q*bstride+c0+n], orow)
					}
				}
				continue
			}
			axpy4(a0, a1, a2, a3,
				b[p*bstride+c0:p*bstride+c0+n],
				b[(p+1)*bstride+c0:(p+1)*bstride+c0+n],
				b[(p+2)*bstride+c0:(p+2)*bstride+c0+n],
				b[(p+3)*bstride+c0:(p+3)*bstride+c0+n],
				orow)
		}
		for ; p < k; p++ {
			if av := arow[p]; av != 0 {
				axpy(av, b[p*bstride+c0:p*bstride+c0+n], orow)
			}
		}
		if bias != nil {
			for j, bv := range bias[:n] {
				orow[j] += bv
			}
		}
	}
}

// LinearInto computes dst = x(rows×in) · W[:, c0:c1) + bias[c0:c1), where W
// is in×wcols row-major and bias (length wcols) may be nil. Writing only a
// column range of a packed weight matrix is what lets attention project Q,
// K and V from one fused [WQ|WK|WV] matrix. Bit-exact against
// AddRowVector(MatMul(x, W'), b') on the corresponding column slice: the row
// kernel adds the bias to each finished chain, the one add AddRowVector makes.
func LinearInto(dst, x []float64, rows, in int, w []float64, wcols, c0, c1 int, bias []float64) {
	n := c1 - c0
	if bias != nil {
		bias = bias[c0:c1]
	}
	parallelRows(rows, mulRowCost(in, n), func(lo, hi int) {
		mulRowRange(dst, x, w, lo, hi, in, n, wcols, c0, true, bias)
	})
}

// AttnShape describes the layout of packed projections for
// FusedAttentionCore. Query row i's head-h slice lives at
// qp[i*QStride+QOff+h*HeadDim : ... +HeadDim]; key and value rows likewise
// in kvp at KOff/VOff. With self-attention on a packed [Q|K|V] projection,
// qp == kvp, QOff=0, KOff=H, VOff=2H and both strides are 3H.
type AttnShape struct {
	Lq, Lkv, Heads, HeadDim int
	QOff, QStride           int
	KOff, VOff, KVStride    int
	Scale                   float64
}

// AttnSpan restricts a run of consecutive query rows [RowLo, RowHi) to two
// half-open key ranges, A then B: ascending and disjoint (A[1] <= B[0]), either
// possibly empty (lo == hi). It is the whole attention-mask vocabulary of the
// NoGrad fast path — the §6.4 column restriction lets a content row see its
// own chunk's metadata block and its own column's content span, nothing
// else — so the kernels visit exactly the keys a row can see instead of
// testing a dense Lq×Lkv mask. A span list must tile [0, Lq) in row order; a
// nil list means every row sees every key.
type AttnSpan struct {
	RowLo, RowHi int
	A, B         [2]int
}

// visible returns the span's non-empty key ranges in ascending order.
func (sp AttnSpan) visible() (r [2][2]int, n int) {
	for _, kr := range [2][2]int{sp.A, sp.B} {
		if kr[0] < kr[1] {
			r[n] = kr
			n++
		}
	}
	return r, n
}

// checkSpans panics unless spans tile the query rows [0, lq) in order with
// ascending, disjoint key ranges inside [0, lkv) — a malformed list is a
// caller bug that would otherwise read scratch the kernel never wrote.
func checkSpans(spans []AttnSpan, lq, lkv int) {
	row := 0
	for _, sp := range spans {
		ok := sp.RowLo == row && sp.RowHi >= sp.RowLo &&
			0 <= sp.A[0] && sp.A[0] <= sp.A[1] && sp.A[1] <= sp.B[0] && sp.B[0] <= sp.B[1] && sp.B[1] <= lkv
		if !ok {
			panic(fmt.Sprintf("tensor: bad attention span %+v (next row %d, lq %d, lkv %d)", sp, row, lq, lkv))
		}
		row = sp.RowHi
	}
	if row != lq {
		panic(fmt.Sprintf("tensor: attention spans cover %d query rows, want %d", row, lq))
	}
}

// spansOrAll validates a kernel's spans argument, standing in the one group
// a nil list means — every row sees every key — built in the caller's all so
// the default allocates nothing.
func spansOrAll(spans []AttnSpan, all *[1]AttnSpan, lq, lkv int) []AttnSpan {
	if spans == nil {
		all[0] = AttnSpan{RowLo: 0, RowHi: lq, A: [2]int{0, lkv}, B: [2]int{lkv, lkv}}
		return all[:]
	}
	checkSpans(spans, lq, lkv)
	return spans
}

// DenseMask materializes spans as the additive lq×lkv mask the composed
// autograd ops take: 0 where a row may attend, -Inf elsewhere. It returns nil
// when nothing is hidden (nil spans, or every row sees all lkv keys), so the
// common single-column training step allocates no mask.
func DenseMask(spans []AttnSpan, lq, lkv int) *Tensor {
	if spans == nil {
		return nil
	}
	checkSpans(spans, lq, lkv)
	hidden := false
	for _, sp := range spans {
		if sp.RowHi > sp.RowLo && (sp.A[1]-sp.A[0])+(sp.B[1]-sp.B[0]) != lkv {
			hidden = true
		}
	}
	if !hidden {
		return nil
	}
	mask := New(lq, lkv)
	mask.Fill(math.Inf(-1))
	for _, sp := range spans {
		for i := sp.RowLo; i < sp.RowHi; i++ {
			row := mask.Row(i)
			for _, kr := range [2][2]int{sp.A, sp.B} {
				for j := kr[0]; j < kr[1]; j++ {
					row[j] = 0
				}
			}
		}
	}
	return mask
}

// FusedAttentionCore computes multi-head scaled dot-product attention into
// dst (Lq × Heads*HeadDim, head h in columns [h*HeadDim,(h+1)*HeadDim)),
// streaming one score row at a time instead of materializing per-head
// Lq×Lkv score matrices. spans (nil = everything visible) names the keys
// each query row may attend to; scores, exponentials, normalization and the
// weights×V product touch those keys only, so the cost of a row is what it
// sees, not Lkv. A row that sees nothing yields zeros. Where the platform
// has block kernels (attnBlocks: AVX-512, head width 16) they run eight rows
// of a span at a time with each row's operations unchanged; the per-row
// loop below is every other case and the reference they are tested against.
//
// Bit-exact against SliceCols+MatMulNT+Scale+SoftmaxRows(DenseMask)+MatMul+
// ConcatCols: a -Inf-masked key contributes exp(-Inf) = +0 to the softmax
// sum (x + 0 == x) and a zero weight the composed MatMul skips, so visiting
// only the visible keys, in ascending order, runs the same left-associative
// chains. That holds wherever a hidden key scores finite or -Inf; one that
// scores NaN or +Inf turns the composed row NaN (score + -Inf), and here it
// is never read.
func FusedAttentionCore(ws *Workspace, dst, qp, kvp []float64, sh AttnShape, spans []AttnSpan) {
	var all [1]AttnSpan
	spans = spansOrAll(spans, &all, sh.Lq, sh.Lkv)
	if attnBlocks(ws, dst, qp, kvp, sh, spans) {
		return
	}
	hd := sh.Heads * sh.HeadDim
	srow := ws.Take(sh.Lkv)
	for h := 0; h < sh.Heads; h++ {
		qOff := sh.QOff + h*sh.HeadDim
		kOff := sh.KOff + h*sh.HeadDim
		vOff := sh.VOff + h*sh.HeadDim
		for _, sp := range spans {
			vis, nv := sp.visible()
			for i := sp.RowLo; i < sp.RowHi; i++ {
				qrow := qp[i*sh.QStride+qOff : i*sh.QStride+qOff+sh.HeadDim]
				drow := dst[i*hd+h*sh.HeadDim : i*hd+(h+1)*sh.HeadDim]
				maxv := math.Inf(-1)
				for _, kr := range vis[:nv] {
					maxv = scoreRow(srow, qrow, kvp, kOff, sh.KVStride, kr[0], kr[1], sh.HeadDim, sh.Scale, maxv)
				}
				// The exponentials are independent elements (expSubRow); their
				// sum is one left-associative chain over them, in key order.
				sum := 0.0
				if !math.IsInf(maxv, -1) {
					for _, kr := range vis[:nv] {
						w := srow[kr[0]:kr[1]]
						expSubRow(w, maxv)
						for _, e := range w {
							sum += e
						}
					}
				}
				if sum == 0 {
					// Nothing visible (or every weight underflowed):
					// SoftmaxRows emits zeros, so AV is zero.
					for j := range drow {
						drow[j] = 0
					}
					continue
				}
				// Normalize in place exactly as SoftmaxRows does, then run each
				// visible range's weights×V through the register-blocked matmul
				// kernel (one output row, B columns [vOff, vOff+HeadDim)), the
				// first range clearing drow and later ones accumulating.
				// Underflowed weights are exact zeros and are skipped, as the
				// composed MatMul's zero-skip does.
				inv := 1.0 / sum
				for r, kr := range vis[:nv] {
					w := srow[kr[0]:kr[1]]
					for j := range w {
						w[j] *= inv
					}
					mulRowRange(drow, w, kvp[kr[0]*sh.KVStride:], 0, 1, len(w), sh.HeadDim, sh.KVStride, vOff, r == 0, nil)
				}
			}
		}
	}
}

// scoreRow (per platform: the AVX2 kernel where the CPU has it, else
// scoreRowGo) fills srow[lo:hi) with the scaled q·k scores of one query
// row against keys [lo, hi) and returns the running row max, seeded with maxv.
// scoreRowGo is the Go implementation the assembly is tested against.
func scoreRowGo(srow, qrow, kvp []float64, kOff, stride, lo, hi, headDim int, scale, maxv float64) float64 {
	if headDim == 16 {
		return scoreRow16(srow, qrow, kvp, kOff, stride, lo, hi, scale, maxv)
	}
	return scoreRowGeneric(srow, qrow, kvp, kOff, stride, lo, hi, headDim, scale, maxv)
}

// scoreRowGeneric is scoreRow for any head width. The dot is four strided
// partial sums from +0.0, the last hd%4 products going to s0, each product
// fused into its partial (see axpy4), then ((s0+s1)+s2)+s3.
func scoreRowGeneric(srow, qrow, kvp []float64, kOff, stride, lo, hi, headDim int, scale, maxv float64) float64 {
	for j := lo; j < hi; j++ {
		krow := kvp[j*stride+kOff : j*stride+kOff+headDim]
		var s0, s1, s2, s3 float64
		d := 0
		for ; d+4 <= headDim; d += 4 {
			s0 = fma(qrow[d], krow[d], s0)
			s1 = fma(qrow[d+1], krow[d+1], s1)
			s2 = fma(qrow[d+2], krow[d+2], s2)
			s3 = fma(qrow[d+3], krow[d+3], s3)
		}
		for ; d < headDim; d++ {
			s0 = fma(qrow[d], krow[d], s0)
		}
		v := (s0 + s1 + s2 + s3) * scale
		srow[j] = v
		if v > maxv {
			maxv = v
		}
	}
	return maxv
}

// scoreRow16 is scoreRowGeneric specialized to 16-wide heads (the repro
// config): the query row is held in locals and the four partial sums are
// fully unrolled in the same strided order as the generic loop, so each
// partial sees an identical left-associative accumulation sequence. (The
// generic loop seeds each partial with +0.0, so its first step is
// FMA(q, k, +0.0) where the unrolled chain starts from the rounded product;
// the two differ only in the sign of a zero-valued product, and a zero's
// sign never survives exp(v - max) downstream.)
func scoreRow16(srow, qrow, kvp []float64, kOff, stride, lo, hi int, scale, maxv float64) float64 {
	q0, q1, q2, q3 := qrow[0], qrow[1], qrow[2], qrow[3]
	q4, q5, q6, q7 := qrow[4], qrow[5], qrow[6], qrow[7]
	q8, q9, q10, q11 := qrow[8], qrow[9], qrow[10], qrow[11]
	q12, q13, q14, q15 := qrow[12], qrow[13], qrow[14], qrow[15]
	for j := lo; j < hi; j++ {
		base := j*stride + kOff
		k := kvp[base : base+16 : base+16]
		s0 := fma(q12, k[12], fma(q8, k[8], fma(q4, k[4], float64(q0*k[0]))))
		s1 := fma(q13, k[13], fma(q9, k[9], fma(q5, k[5], float64(q1*k[1]))))
		s2 := fma(q14, k[14], fma(q10, k[10], fma(q6, k[6], float64(q2*k[2]))))
		s3 := fma(q15, k[15], fma(q11, k[11], fma(q7, k[7], float64(q3*k[3]))))
		v := (s0 + s1 + s2 + s3) * scale
		srow[j] = v
		if v > maxv {
			maxv = v
		}
	}
	return maxv
}

// FusedAddLayerNormInto computes dst = LayerNorm(a + b) rowwise, with b nil
// meaning plain LayerNorm(a). dst may alias a or b. Bit-exact against
// LayerNorm(Add(a, b), gamma, beta, eps).
//
// A row's mean and variance are each one serial chain of additions, bound by
// the add latency, not its throughput; rows are independent, so four rows'
// chains are interleaved in one loop and overlap in the pipeline. Each chain
// still adds its own row's elements in column order.
func FusedAddLayerNormInto(dst, a, b, gamma, beta []float64, rows, cols int, eps float64) {
	n := float64(cols)
	for i := 0; i < rows; i++ {
		drow := dst[i*cols : (i+1)*cols]
		arow := a[i*cols : (i+1)*cols]
		if b != nil {
			brow := b[i*cols : (i+1)*cols]
			for j, v := range arow {
				drow[j] = v + brow[j]
			}
		} else if &drow[0] != &arow[0] {
			copy(drow, arow)
		}
	}
	i := 0
	for ; i+4 <= rows; i += 4 {
		d0 := dst[i*cols : (i+1)*cols]
		d1 := dst[(i+1)*cols : (i+2)*cols]
		d2 := dst[(i+2)*cols : (i+3)*cols]
		d3 := dst[(i+3)*cols : (i+4)*cols]
		var m0, m1, m2, m3 float64
		for j, v := range d0 {
			m0 += v
			m1 += d1[j]
			m2 += d2[j]
			m3 += d3[j]
		}
		m0, m1, m2, m3 = m0/n, m1/n, m2/n, m3/n
		var v0, v1, v2, v3 float64
		for j, v := range d0 {
			e0, e1, e2, e3 := v-m0, d1[j]-m1, d2[j]-m2, d3[j]-m3
			v0 += float64(e0 * e0)
			v1 += float64(e1 * e1)
			v2 += float64(e2 * e2)
			v3 += float64(e3 * e3)
		}
		normalizeRow(d0, m0, 1/math.Sqrt(v0/n+eps), gamma, beta)
		normalizeRow(d1, m1, 1/math.Sqrt(v1/n+eps), gamma, beta)
		normalizeRow(d2, m2, 1/math.Sqrt(v2/n+eps), gamma, beta)
		normalizeRow(d3, m3, 1/math.Sqrt(v3/n+eps), gamma, beta)
	}
	for ; i < rows; i++ {
		drow := dst[i*cols : (i+1)*cols]
		m := 0.0
		for _, v := range drow {
			m += v
		}
		m /= n
		vsum := 0.0
		for _, v := range drow {
			d := v - m
			vsum += float64(d * d)
		}
		normalizeRow(drow, m, 1/math.Sqrt(vsum/n+eps), gamma, beta)
	}
}

// normalizeRow is LayerNorm's last pass over one row whose mean and inverse
// standard deviation are known.
func normalizeRow(row []float64, m, inv float64, gamma, beta []float64) {
	for j, v := range row {
		row[j] = float64((v-m)*inv*gamma[j]) + beta[j]
	}
}

// expSubRow (per platform: the AVX-512 or AVX2 kernel where the CPU has it
// and FMA, else expSubRowGo) sets p[j] = Exp(p[j] − sub), softmax's pass over
// one row of scores. expSubRowGo is the Go implementation, what the assembly
// is tested against and what runs the blocks it declines.
func expSubRowGo(p []float64, sub float64) {
	for j, v := range p {
		p[j] = Exp(v - sub)
	}
}

// geluRow (per platform, like expSubRow) applies the tanh-approximation
// GELU used by BERT-family models to every element of p; geluRowGo is the Go
// implementation, and geluScalar the package's one forward expression of the
// function: GELU, FusedGELUInPlace and the assembly's fallback all end here.
func geluRowGo(p []float64) {
	for i, v := range p {
		p[i] = geluScalar(v)
	}
}

// The cubic term is converted before it is added: the Go spec lets a
// compiler fuse x*y+z into one rounding (arm64, ppc64le, s390x and riscv64
// do) unless the product is explicitly converted, and GELU's arithmetic is
// unfused, so the assembly lanes and the scalar elements of one row agree
// on every build.
func geluScalar(v float64) float64 {
	inner := geluC * (v + float64(0.044715*v*v*v))
	return 0.5 * v * (1 + tanh(inner))
}

const geluC = 0.7978845608028654 // sqrt(2/π)

// FusedGELUInPlace applies GELU elementwise, the same kernel the graph op
// runs.
func FusedGELUInPlace(x []float64) { geluRow(x) }

// FusedReLUInPlace applies max(0, x) elementwise, bit-exact against ReLU
// (negative values, -0.0 and NaN all map to +0.0, as the slow path's
// zero-initialized output does).
func FusedReLUInPlace(x []float64) {
	for i, v := range x {
		if v > 0 {
			continue
		}
		x[i] = 0
	}
}

// MeanPoolRowsInto writes the column means of x's rows [lo, hi) into dst
// (length cols), bit-exact against MeanRows(SliceRows(x, lo, hi)).
func MeanPoolRowsInto(dst, x []float64, cols, lo, hi int) {
	for j := range dst[:cols] {
		dst[j] = 0
	}
	for i := lo; i < hi; i++ {
		row := x[i*cols : (i+1)*cols]
		for j, v := range row {
			dst[j] += v
		}
	}
	inv := 1.0 / float64(hi-lo)
	for j := range dst[:cols] {
		dst[j] *= inv
	}
}

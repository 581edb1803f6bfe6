package tensor

import (
	"fmt"
	"math"
)

// MatMul returns a × b, with autograd support.
func MatMul(a, b *Tensor) *Tensor {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := result(a.Rows, b.Cols, []*Tensor{a, b}, nil)
	matmulInto(out.Data, a.Data, b.Data, a.Rows, a.Cols, b.Cols)
	if out.requiresGrad {
		out.backward = func() {
			// dA += dOut × Bᵀ ; dB += Aᵀ × dOut
			if a.requiresGrad {
				a.ensureGrad()
				withTransposed(b.Data, b.Rows, b.Cols, func(bt []float64) {
					matmulAccInto(a.Grad, out.Grad, bt, a.Rows, b.Cols, a.Cols)
				})
			}
			if b.requiresGrad {
				b.ensureGrad()
				withTransposed(a.Data, a.Rows, a.Cols, func(at []float64) {
					matmulAccInto(b.Grad, at, out.Grad, a.Cols, a.Rows, b.Cols)
				})
			}
		}
	}
	return out
}

// MatMulNT returns a × bᵀ. b is rows×cols with b.Cols == a.Cols.
func MatMulNT(a, b *Tensor) *Tensor {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulNT shape mismatch %dx%d × (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := result(a.Rows, b.Rows, []*Tensor{a, b}, nil)
	matmulNTInto(out.Data, a.Data, b.Data, a.Rows, a.Cols, b.Rows)
	if out.requiresGrad {
		out.backward = func() {
			// out = A Bᵀ: dA += dOut × B ; dB += dOutᵀ × A
			if a.requiresGrad {
				a.ensureGrad()
				matmulAccInto(a.Grad, out.Grad, b.Data, a.Rows, b.Rows, a.Cols)
			}
			if b.requiresGrad {
				b.ensureGrad()
				withTransposed(out.Grad, out.Rows, out.Cols, func(gt []float64) {
					matmulAccInto(b.Grad, gt, a.Data, b.Rows, a.Rows, a.Cols)
				})
			}
		}
	}
	return out
}

// withTransposed runs f on x (rows×cols) transposed into arena scratch, so
// a backward product with a transposed operand runs on the row kernels,
// with the chains the matmul reference specifies.
func withTransposed(x []float64, rows, cols int, f func(t []float64)) {
	t, pooled := allocDataDirty(rows * cols)
	for i := 0; i < rows; i++ {
		for j, v := range x[i*cols : (i+1)*cols] {
			t[j*rows+i] = v
		}
	}
	f(t)
	if pooled {
		freeData(t)
	}
}

// matmulInto computes out = A(m×k) × B(k×n), overwriting out. Output rows
// are sharded across the runtime's worker pool and the inner loop is
// register-blocked four ranks at a time (mulRowRange); each row's
// accumulation order is identical to the scalar one-rank-at-a-time kernel,
// so results are bit-exact regardless of parallelism or blocking.
func matmulInto(out, a, b []float64, m, k, n int) {
	parallelRows(m, mulRowCost(k, n), func(lo, hi int) {
		mulRowRange(out, a, b, lo, hi, k, n, n, 0, true, nil)
	})
}

// matmulAccInto computes out += A(m×k) × B(k×n), row-sharded like matmulInto.
func matmulAccInto(out, a, b []float64, m, k, n int) {
	parallelRows(m, mulRowCost(k, n), func(lo, hi int) {
		mulRowRange(out, a, b, lo, hi, k, n, n, 0, false, nil)
	})
}

// ntTileRows is the B-row tile width of the NT kernel: a tile of 48 rows ×
// 64-ish columns of float64 stays L1/L2-resident while it is reused against
// every A row of a shard.
const ntTileRows = 48

// matmulNTInto computes out = A(m×k) × B(n×k)ᵀ — the composed attention
// scores — on scoreRow at scale 1 (exact): FusedAttentionCore's score
// kernel, so the two paths' scores are one computation. Rows of out are
// sharded across the worker pool and the inner loops are cache-blocked over
// B's rows so each tile of B is reused across the shard's A rows instead of
// streaming the whole of B per row.
func matmulNTInto(out, a, b []float64, m, k, n int) {
	parallelRows(m, k*n, func(lo, hi int) {
		for j0 := 0; j0 < n; j0 += ntTileRows {
			j1 := min(j0+ntTileRows, n)
			for i := lo; i < hi; i++ {
				scoreRow(out[i*n:(i+1)*n], a[i*k:(i+1)*k], b, 0, k, j0, j1, k, 1, math.Inf(-1))
			}
		}
	})
}

// axpy computes y += alpha * x with 4-way unrolling, the Go row kernel's
// one-rank step. Each product is fused into its element, one rounding (see
// axpy4).
func axpy(alpha float64, x, y []float64) {
	n := len(y)
	x = x[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		y[i] = fma(alpha, x[i], y[i])
		y[i+1] = fma(alpha, x[i+1], y[i+1])
		y[i+2] = fma(alpha, x[i+2], y[i+2])
		y[i+3] = fma(alpha, x[i+3], y[i+3])
	}
	for ; i < n; i++ {
		y[i] = fma(alpha, x[i], y[i])
	}
}

// Add returns a + b (same shape).
func Add(a, b *Tensor) *Tensor {
	checkSameShape("Add", a, b)
	out := result(a.Rows, a.Cols, []*Tensor{a, b}, nil)
	for i := range out.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	if out.requiresGrad {
		out.backward = func() {
			if a.requiresGrad {
				a.ensureGrad()
				for i, g := range out.Grad {
					a.Grad[i] += g
				}
			}
			if b.requiresGrad {
				b.ensureGrad()
				for i, g := range out.Grad {
					b.Grad[i] += g
				}
			}
		}
	}
	return out
}

// Sub returns a − b (same shape).
func Sub(a, b *Tensor) *Tensor {
	checkSameShape("Sub", a, b)
	out := result(a.Rows, a.Cols, []*Tensor{a, b}, nil)
	for i := range out.Data {
		out.Data[i] = a.Data[i] - b.Data[i]
	}
	if out.requiresGrad {
		out.backward = func() {
			if a.requiresGrad {
				a.ensureGrad()
				for i, g := range out.Grad {
					a.Grad[i] += g
				}
			}
			if b.requiresGrad {
				b.ensureGrad()
				for i, g := range out.Grad {
					b.Grad[i] -= g
				}
			}
		}
	}
	return out
}

// Mul returns the elementwise product a ⊙ b (same shape).
func Mul(a, b *Tensor) *Tensor {
	checkSameShape("Mul", a, b)
	out := result(a.Rows, a.Cols, []*Tensor{a, b}, nil)
	for i := range out.Data {
		out.Data[i] = a.Data[i] * b.Data[i]
	}
	if out.requiresGrad {
		out.backward = func() {
			if a.requiresGrad {
				a.ensureGrad()
				for i, g := range out.Grad {
					a.Grad[i] += g * b.Data[i]
				}
			}
			if b.requiresGrad {
				b.ensureGrad()
				for i, g := range out.Grad {
					b.Grad[i] += g * a.Data[i]
				}
			}
		}
	}
	return out
}

// AddRowVector adds a 1×cols bias vector to every row of a.
func AddRowVector(a, bias *Tensor) *Tensor {
	if bias.Rows != 1 || bias.Cols != a.Cols {
		panic(fmt.Sprintf("tensor: AddRowVector bias %dx%d for matrix %dx%d", bias.Rows, bias.Cols, a.Rows, a.Cols))
	}
	out := result(a.Rows, a.Cols, []*Tensor{a, bias}, nil)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for j, v := range arow {
			orow[j] = v + bias.Data[j]
		}
	}
	if out.requiresGrad {
		out.backward = func() {
			if a.requiresGrad {
				a.ensureGrad()
				for i, g := range out.Grad {
					a.Grad[i] += g
				}
			}
			if bias.requiresGrad {
				bias.ensureGrad()
				for i := 0; i < out.Rows; i++ {
					grow := out.Grad[i*out.Cols : (i+1)*out.Cols]
					for j, g := range grow {
						bias.Grad[j] += g
					}
				}
			}
		}
	}
	return out
}

// Scale returns a × s for scalar s.
func Scale(a *Tensor, s float64) *Tensor {
	out := result(a.Rows, a.Cols, []*Tensor{a}, nil)
	for i, v := range a.Data {
		out.Data[i] = v * s
	}
	if out.requiresGrad {
		out.backward = func() {
			a.ensureGrad()
			for i, g := range out.Grad {
				a.Grad[i] += g * s
			}
		}
	}
	return out
}

// AddScalar returns a + s elementwise.
func AddScalar(a *Tensor, s float64) *Tensor {
	out := result(a.Rows, a.Cols, []*Tensor{a}, nil)
	for i, v := range a.Data {
		out.Data[i] = v + s
	}
	if out.requiresGrad {
		out.backward = func() {
			a.ensureGrad()
			for i, g := range out.Grad {
				a.Grad[i] += g
			}
		}
	}
	return out
}

// ConcatRows stacks tensors vertically; all must share the column count.
func ConcatRows(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: ConcatRows requires at least one tensor")
	}
	cols := ts[0].Cols
	rows := 0
	for _, t := range ts {
		if t.Cols != cols {
			panic(fmt.Sprintf("tensor: ConcatRows column mismatch %d vs %d", t.Cols, cols))
		}
		rows += t.Rows
	}
	out := result(rows, cols, ts, nil)
	off := 0
	for _, t := range ts {
		copy(out.Data[off:off+len(t.Data)], t.Data)
		off += len(t.Data)
	}
	if out.requiresGrad {
		out.backward = func() {
			off := 0
			for _, t := range ts {
				if t.requiresGrad {
					t.ensureGrad()
					for i := range t.Data {
						t.Grad[i] += out.Grad[off+i]
					}
				}
				off += len(t.Data)
			}
		}
	}
	return out
}

// ConcatCols joins tensors horizontally; all must share the row count.
func ConcatCols(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: ConcatCols requires at least one tensor")
	}
	rows := ts[0].Rows
	cols := 0
	for _, t := range ts {
		if t.Rows != rows {
			panic(fmt.Sprintf("tensor: ConcatCols row mismatch %d vs %d", t.Rows, rows))
		}
		cols += t.Cols
	}
	out := result(rows, cols, ts, nil)
	for i := 0; i < rows; i++ {
		off := 0
		orow := out.Row(i)
		for _, t := range ts {
			copy(orow[off:off+t.Cols], t.Row(i))
			off += t.Cols
		}
	}
	if out.requiresGrad {
		out.backward = func() {
			for i := 0; i < rows; i++ {
				off := 0
				grow := out.Grad[i*cols : (i+1)*cols]
				for _, t := range ts {
					if t.requiresGrad {
						t.ensureGrad()
						trow := t.Grad[i*t.Cols : (i+1)*t.Cols]
						for j := range trow {
							trow[j] += grow[off+j]
						}
					}
					off += t.Cols
				}
			}
		}
	}
	return out
}

// SliceRows returns rows [from, to) of a as a new tensor.
func SliceRows(a *Tensor, from, to int) *Tensor {
	if from < 0 || to > a.Rows || from >= to {
		panic(fmt.Sprintf("tensor: SliceRows [%d,%d) of %d rows", from, to, a.Rows))
	}
	out := result(to-from, a.Cols, []*Tensor{a}, nil)
	copy(out.Data, a.Data[from*a.Cols:to*a.Cols])
	if out.requiresGrad {
		out.backward = func() {
			a.ensureGrad()
			base := from * a.Cols
			for i, g := range out.Grad {
				a.Grad[base+i] += g
			}
		}
	}
	return out
}

// SliceCols returns columns [from, to) of a as a new tensor.
func SliceCols(a *Tensor, from, to int) *Tensor {
	if from < 0 || to > a.Cols || from >= to {
		panic(fmt.Sprintf("tensor: SliceCols [%d,%d) of %d cols", from, to, a.Cols))
	}
	w := to - from
	out := result(a.Rows, w, []*Tensor{a}, nil)
	for i := 0; i < a.Rows; i++ {
		copy(out.Row(i), a.Row(i)[from:to])
	}
	if out.requiresGrad {
		out.backward = func() {
			a.ensureGrad()
			for i := 0; i < a.Rows; i++ {
				grow := out.Grad[i*w : (i+1)*w]
				arow := a.Grad[i*a.Cols : (i+1)*a.Cols]
				for j, g := range grow {
					arow[from+j] += g
				}
			}
		}
	}
	return out
}

// PickRows gathers the given rows of a (with repetition allowed) into a new
// tensor; it is the core of embedding lookup.
func PickRows(a *Tensor, idx []int) *Tensor {
	out := result(len(idx), a.Cols, []*Tensor{a}, nil)
	for i, r := range idx {
		if r < 0 || r >= a.Rows {
			panic(fmt.Sprintf("tensor: PickRows index %d out of %d rows", r, a.Rows))
		}
		copy(out.Row(i), a.Row(r))
	}
	if out.requiresGrad {
		out.backward = func() {
			a.ensureGrad()
			for i, r := range idx {
				grow := out.Grad[i*out.Cols : (i+1)*out.Cols]
				arow := a.Grad[r*a.Cols : (r+1)*a.Cols]
				for j, g := range grow {
					arow[j] += g
				}
			}
		}
	}
	return out
}

// MeanRows returns a 1×cols tensor holding the column means.
func MeanRows(a *Tensor) *Tensor {
	out := result(1, a.Cols, []*Tensor{a}, nil)
	for i := 0; i < a.Rows; i++ {
		for j, v := range a.Row(i) {
			out.Data[j] += v
		}
	}
	inv := 1.0 / float64(a.Rows)
	for j := range out.Data {
		out.Data[j] *= inv
	}
	if out.requiresGrad {
		out.backward = func() {
			a.ensureGrad()
			for i := 0; i < a.Rows; i++ {
				arow := a.Grad[i*a.Cols : (i+1)*a.Cols]
				for j, g := range out.Grad {
					arow[j] += g * inv
				}
			}
		}
	}
	return out
}

// Sum reduces the whole tensor to a 1×1 scalar.
func Sum(a *Tensor) *Tensor {
	out := result(1, 1, []*Tensor{a}, nil)
	s := 0.0
	for _, v := range a.Data {
		s += v
	}
	out.Data[0] = s
	if out.requiresGrad {
		out.backward = func() {
			a.ensureGrad()
			g := out.Grad[0]
			for i := range a.Grad {
				a.Grad[i] += g
			}
		}
	}
	return out
}

// Mean reduces the whole tensor to its scalar mean.
func Mean(a *Tensor) *Tensor {
	out := Sum(a)
	return Scale(out, 1.0/float64(len(a.Data)))
}

func checkSameShape(op string, a, b *Tensor) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// SoftmaxRows applies softmax independently to each row, with optional
// additive mask applied before normalization (mask may be nil). Mask entries
// of -Inf remove a position entirely.
func SoftmaxRows(a *Tensor, mask *Tensor) *Tensor {
	if mask != nil {
		checkSameShape("SoftmaxRows mask", a, mask)
	}
	parents := []*Tensor{a}
	out := result(a.Rows, a.Cols, parents, nil)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		maxv := math.Inf(-1)
		for j, v := range arow {
			if mask != nil {
				v += mask.At(i, j)
			}
			orow[j] = v
			if v > maxv {
				maxv = v
			}
		}
		if math.IsInf(maxv, -1) {
			// Entire row masked (all -Inf): exp(-Inf − -Inf) would be NaN.
			// Emit zeros; the backward pass skips these rows.
			for j := range orow {
				orow[j] = 0
			}
			continue
		}
		expSubRow(orow, maxv)
		sum := 0.0
		for _, e := range orow {
			sum += e
		}
		if sum == 0 {
			// Entire row masked; emit uniform zeros to avoid NaN.
			continue
		}
		inv := 1.0 / sum
		for j := range orow {
			orow[j] *= inv
		}
	}
	if out.requiresGrad {
		out.backward = func() {
			a.ensureGrad()
			for i := 0; i < a.Rows; i++ {
				orow := out.Data[i*out.Cols : (i+1)*out.Cols]
				grow := out.Grad[i*out.Cols : (i+1)*out.Cols]
				arow := a.Grad[i*a.Cols : (i+1)*a.Cols]
				// Fully-masked rows were emitted as all zeros; they carry no
				// gradient, and an upstream ±Inf grad would otherwise turn
				// 0·(g − dot) into NaN.
				rowSum := 0.0
				for _, y := range orow {
					rowSum += y
				}
				if rowSum == 0 {
					continue
				}
				// dL/dx_j = y_j (g_j − Σ_k g_k y_k)
				dot := 0.0
				for j, g := range grow {
					dot += g * orow[j]
				}
				for j := range arow {
					arow[j] += orow[j] * (grow[j] - dot)
				}
			}
		}
	}
	return out
}

// Log applies the natural logarithm elementwise; inputs must be positive.
func Log(a *Tensor) *Tensor {
	out := result(a.Rows, a.Cols, []*Tensor{a}, nil)
	for i, v := range a.Data {
		out.Data[i] = math.Log(v)
	}
	if out.requiresGrad {
		out.backward = func() {
			a.ensureGrad()
			for i, g := range out.Grad {
				a.Grad[i] += g / a.Data[i]
			}
		}
	}
	return out
}

// Reciprocal computes 1/x elementwise.
func Reciprocal(a *Tensor) *Tensor {
	out := result(a.Rows, a.Cols, []*Tensor{a}, nil)
	for i, v := range a.Data {
		out.Data[i] = 1 / v
	}
	if out.requiresGrad {
		out.backward = func() {
			a.ensureGrad()
			for i, g := range out.Grad {
				y := out.Data[i]
				a.Grad[i] -= g * y * y
			}
		}
	}
	return out
}

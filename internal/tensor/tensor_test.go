package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// ZeroGrad clears the gradient buffer if present.
func (t *Tensor) ZeroGrad() {
	for i := range t.Grad {
		t.Grad[i] = 0
	}
}

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestNewShapes(t *testing.T) {
	a := New(3, 4)
	if a.Rows != 3 || a.Cols != 4 || len(a.Data) != 12 {
		t.Fatalf("unexpected shape: %v", a)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid shape")
		}
	}()
	New(0, 4)
}

// fromSlice wraps data (row-major) in a tensor of the given shape. The slice
// is used directly, not copied. It panics if len(data) != rows*cols.
func fromSlice(rows, cols int, data []float64) *Tensor {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %dx%d", len(data), rows, cols))
	}
	return &Tensor{Rows: rows, Cols: cols, Data: data}
}

func TestFromSlice(t *testing.T) {
	a := fromSlice(2, 2, []float64{1, 2, 3, 4})
	if a.At(1, 0) != 3 {
		t.Fatalf("At(1,0) = %v, want 3", a.At(1, 0))
	}
	a.Row(1)[1] = 9
	if a.At(1, 1) != 9 {
		t.Fatal("Row is not a view")
	}
}

func TestFromRows(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if a.Rows != 3 || a.At(2, 1) != 6 {
		t.Fatalf("FromRows wrong: %+v", a.Data)
	}
}

func TestCloneDetach(t *testing.T) {
	a := fromSlice(1, 2, []float64{1, 2})
	d := a.Detach()
	d.Data[0] = 7
	if a.Data[0] != 7 {
		t.Fatal("Detach should share data")
	}
}

func TestMatMulForward(t *testing.T) {
	a := fromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := fromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("MatMul[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
}

func TestMatMulNTForward(t *testing.T) {
	a := fromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	bT := fromSlice(2, 3, []float64{7, 9, 11, 8, 10, 12}) // transpose of b above
	c := MatMulNT(a, bT)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("MatMulNT[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
}

// numericalGrad estimates d(loss)/d(p.Data[idx]) by central differences,
// where forward recomputes the scalar loss from current parameter values.
func numericalGrad(p *Tensor, idx int, forward func() float64) float64 {
	const h = 1e-5
	orig := p.Data[idx]
	p.Data[idx] = orig + h
	up := forward()
	p.Data[idx] = orig - h
	down := forward()
	p.Data[idx] = orig
	return (up - down) / (2 * h)
}

// checkGrads verifies analytic gradients for every element of every
// parameter against numerical differentiation.
func checkGrads(t *testing.T, params []*Tensor, forward func() *Tensor) {
	t.Helper()
	loss := forward()
	loss.Backward()
	// Snapshot analytic grads before numerical probing re-runs forward
	// (which zeroes them).
	analytic := make([][]float64, len(params))
	for i, p := range params {
		analytic[i] = make([]float64, len(p.Data))
		if p.Grad != nil {
			copy(analytic[i], p.Grad)
		}
	}
	for pi, p := range params {
		for i := range p.Data {
			want := numericalGrad(p, i, func() float64 { return forward().Item() })
			got := analytic[pi][i]
			if !almostEqual(got, want, 1e-4) {
				t.Errorf("param %d elem %d: analytic %v, numeric %v", pi, i, got, want)
			}
		}
	}
}

func randParam(rng *rand.Rand, rows, cols int) *Tensor {
	p := Param(rows, cols)
	for i := range p.Data {
		p.Data[i] = rng.NormFloat64() * 0.5
	}
	return p
}

func TestMatMulGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randParam(rng, 2, 3)
	b := randParam(rng, 3, 4)
	checkGrads(t, []*Tensor{a, b}, func() *Tensor {
		a.ZeroGrad()
		b.ZeroGrad()
		return Sum(MatMul(a, b))
	})
}

func TestMatMulNTGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randParam(rng, 2, 3)
	b := randParam(rng, 4, 3)
	checkGrads(t, []*Tensor{a, b}, func() *Tensor {
		a.ZeroGrad()
		b.ZeroGrad()
		// Square the output so the gradient depends on values.
		c := MatMulNT(a, b)
		return Sum(Mul(c, c))
	})
}

func TestAddSubMulGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randParam(rng, 2, 2)
	b := randParam(rng, 2, 2)
	checkGrads(t, []*Tensor{a, b}, func() *Tensor {
		a.ZeroGrad()
		b.ZeroGrad()
		return Sum(Mul(Add(a, b), Add(a, Scale(b, -1))))
	})
}

func TestAddRowVectorGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randParam(rng, 3, 2)
	bias := randParam(rng, 1, 2)
	checkGrads(t, []*Tensor{a, bias}, func() *Tensor {
		a.ZeroGrad()
		bias.ZeroGrad()
		o := AddRowVector(a, bias)
		return Sum(Mul(o, o))
	})
}

func TestScaleAddScalarGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randParam(rng, 2, 3)
	checkGrads(t, []*Tensor{a}, func() *Tensor {
		a.ZeroGrad()
		return Sum(Mul(Scale(a, 2.5), AddScalar(a, 1)))
	})
}

func TestConcatRowsGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randParam(rng, 2, 3)
	b := randParam(rng, 1, 3)
	checkGrads(t, []*Tensor{a, b}, func() *Tensor {
		a.ZeroGrad()
		b.ZeroGrad()
		c := ConcatRows(a, b)
		return Sum(Mul(c, c))
	})
}

func TestConcatColsGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randParam(rng, 2, 2)
	b := randParam(rng, 2, 3)
	checkGrads(t, []*Tensor{a, b}, func() *Tensor {
		a.ZeroGrad()
		b.ZeroGrad()
		c := ConcatCols(a, b)
		return Sum(Mul(c, c))
	})
}

func TestSliceRowsColsGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randParam(rng, 4, 4)
	checkGrads(t, []*Tensor{a}, func() *Tensor {
		a.ZeroGrad()
		r := SliceRows(a, 1, 3)
		c := SliceCols(r, 0, 2)
		return Sum(Mul(c, c))
	})
}

func TestPickRowsGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randParam(rng, 5, 3)
	idx := []int{0, 2, 2, 4}
	checkGrads(t, []*Tensor{a}, func() *Tensor {
		a.ZeroGrad()
		g := PickRows(a, idx)
		return Sum(Mul(g, g))
	})
}

func TestMeanRowsGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randParam(rng, 3, 4)
	checkGrads(t, []*Tensor{a}, func() *Tensor {
		a.ZeroGrad()
		m := MeanRows(a)
		return Sum(Mul(m, m))
	})
}

func TestSoftmaxRowsForward(t *testing.T) {
	a := fromSlice(1, 3, []float64{1, 2, 3})
	s := SoftmaxRows(a, nil)
	sum := s.Data[0] + s.Data[1] + s.Data[2]
	if !almostEqual(sum, 1, 1e-9) {
		t.Fatalf("softmax row sums to %v", sum)
	}
	if !(s.Data[2] > s.Data[1] && s.Data[1] > s.Data[0]) {
		t.Fatal("softmax should be monotone in logits")
	}
}

func TestSoftmaxMask(t *testing.T) {
	a := fromSlice(1, 3, []float64{5, 1, 1})
	mask := fromSlice(1, 3, []float64{math.Inf(-1), 0, 0})
	s := SoftmaxRows(a, mask)
	if s.Data[0] != 0 {
		t.Fatalf("masked position should be 0, got %v", s.Data[0])
	}
	if !almostEqual(s.Data[1]+s.Data[2], 1, 1e-9) {
		t.Fatal("unmasked positions should sum to 1")
	}
}

func TestSoftmaxGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randParam(rng, 2, 4)
	w := fromSlice(2, 4, []float64{0.3, -0.2, 0.5, 1, -1, 0.4, 0.1, 0.9})
	checkGrads(t, []*Tensor{a}, func() *Tensor {
		a.ZeroGrad()
		s := SoftmaxRows(a, nil)
		return Sum(Mul(s, w))
	})
}

func TestReLUGrad(t *testing.T) {
	a := fromSlice(1, 4, []float64{-1, 0.5, 2, -0.1})
	a.SetRequiresGrad(true)
	checkGrads(t, []*Tensor{a}, func() *Tensor {
		a.ZeroGrad()
		r := ReLU(a)
		return Sum(Mul(r, r))
	})
}

func TestGELUGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randParam(rng, 2, 3)
	checkGrads(t, []*Tensor{a}, func() *Tensor {
		a.ZeroGrad()
		return Sum(GELU(a))
	})
}

func TestLayerNormForward(t *testing.T) {
	a := fromSlice(1, 4, []float64{1, 2, 3, 4})
	gamma := New(1, 4)
	gamma.Fill(1)
	beta := New(1, 4)
	o := LayerNorm(a, gamma, beta, 1e-5)
	mean := 0.0
	for _, v := range o.Data {
		mean += v
	}
	mean /= 4
	if !almostEqual(mean, 0, 1e-6) {
		t.Fatalf("layernorm mean = %v, want 0", mean)
	}
	variance := 0.0
	for _, v := range o.Data {
		variance += v * v
	}
	variance /= 4
	if !almostEqual(variance, 1, 1e-3) {
		t.Fatalf("layernorm var = %v, want 1", variance)
	}
}

func TestLayerNormGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := randParam(rng, 3, 4)
	gamma := randParam(rng, 1, 4)
	beta := randParam(rng, 1, 4)
	w := New(3, 4)
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64()
	}
	checkGrads(t, []*Tensor{a, gamma, beta}, func() *Tensor {
		a.ZeroGrad()
		gamma.ZeroGrad()
		beta.ZeroGrad()
		o := LayerNorm(a, gamma, beta, 1e-5)
		return Sum(Mul(o, w))
	})
}

// BCEWithLogits is the unweighted binary cross-entropy, the reference
// WeightedBCEWithLogits must equal at weight 1: the mean over elements of
// log(1+e^x) − y·x, computed stably, with gradient (σ(x) − y) / N.
func BCEWithLogits(logits, targets *Tensor) *Tensor {
	checkSameShape("BCEWithLogits", logits, targets)
	out := result(1, 1, []*Tensor{logits}, nil)
	n := float64(len(logits.Data))
	s := 0.0
	for i, x := range logits.Data {
		y := targets.Data[i]
		// log(1+e^x) computed stably.
		var l float64
		if x > 0 {
			l = x + math.Log1p(math.Exp(-x)) - y*x
		} else {
			l = math.Log1p(math.Exp(x)) - y*x
		}
		s += l
	}
	out.Data[0] = s / n
	if out.requiresGrad {
		out.backward = func() {
			logits.ensureGrad()
			g := out.Grad[0] / n
			for i, x := range logits.Data {
				sig := 1 / (1 + math.Exp(-x))
				logits.Grad[i] += g * (sig - targets.Data[i])
			}
		}
	}
	return out
}

func TestBCEWithLogitsGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	logits := randParam(rng, 2, 3)
	targets := fromSlice(2, 3, []float64{1, 0, 1, 0, 0, 1})
	checkGrads(t, []*Tensor{logits}, func() *Tensor {
		logits.ZeroGrad()
		return BCEWithLogits(logits, targets)
	})
}

func TestWeightedBCEGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	logits := randParam(rng, 2, 3)
	targets := fromSlice(2, 3, []float64{1, 0, 1, 0, 0, 1})
	checkGrads(t, []*Tensor{logits}, func() *Tensor {
		logits.ZeroGrad()
		return WeightedBCEWithLogits(logits, targets, 4)
	})
}

func TestWeightedBCEEqualsPlainAtWeightOne(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	logits := randParam(rng, 3, 4)
	targets := New(3, 4)
	for i := range targets.Data {
		if rng.Float64() < 0.3 {
			targets.Data[i] = 1
		}
	}
	a := BCEWithLogits(logits.Detach(), targets).Item()
	b := WeightedBCEWithLogits(logits.Detach(), targets, 1).Item()
	if !almostEqual(a, b, 1e-9) {
		t.Fatalf("weighted(1) = %v, plain = %v", b, a)
	}
}

func TestCrossEntropyRowsGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	logits := randParam(rng, 4, 5)
	targets := []int{2, -1, 0, 4} // one row ignored
	checkGrads(t, []*Tensor{logits}, func() *Tensor {
		logits.ZeroGrad()
		return CrossEntropyRows(logits, targets)
	})
}

func TestCrossEntropyAllIgnored(t *testing.T) {
	logits := Param(2, 3)
	loss := CrossEntropyRows(logits, []int{-1, -1})
	if loss.Item() != 0 {
		t.Fatalf("all-ignored loss = %v, want 0", loss.Item())
	}
}

func TestBackwardRequiresScalar(t *testing.T) {
	a := Param(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-scalar Backward")
		}
	}()
	MatMul(a, a).Backward()
}

func TestNoGradPathRecordsNoBackwardState(t *testing.T) {
	a := fromSlice(2, 2, []float64{1, 2, 3, 4})
	b := fromSlice(2, 2, []float64{1, 0, 0, 1})
	c := MatMul(a, b)
	if c.requiresGrad || c.backward != nil {
		t.Fatal("op over non-grad tensors must not build backward state")
	}
	// Parents are still recorded so ReleaseGraph can recycle inference
	// graphs through the arena.
	if c.parents == nil {
		t.Fatal("op outputs must record parents for ReleaseGraph")
	}
}

func TestGradAccumulationAcrossUses(t *testing.T) {
	// y = sum(a) + sum(a) should give grad 2 everywhere.
	a := Param(2, 2)
	a.Fill(1)
	loss := Add(Sum(a), Sum(a))
	loss.Backward()
	for i, g := range a.Grad {
		if g != 2 {
			t.Fatalf("grad[%d] = %v, want 2", i, g)
		}
	}
}

func TestDeepGraphBackward(t *testing.T) {
	// Long chains must not blow the stack (iterative topo sort).
	a := Param(1, 1)
	a.Fill(1)
	x := a.Detach()
	x.SetRequiresGrad(true)
	cur := Scale(a, 1)
	for i := 0; i < 5000; i++ {
		cur = AddScalar(cur, 0)
	}
	Sum(cur).Backward()
	if a.Grad[0] != 1 {
		t.Fatalf("deep chain grad = %v, want 1", a.Grad[0])
	}
}

func TestAdamConvergesQuadratic(t *testing.T) {
	// Minimize ||x - target||² — Adam should approach the target.
	x := Param(1, 4)
	target := fromSlice(1, 4, []float64{1, -2, 3, 0.5})
	opt := NewAdam([]*Tensor{x}, 0.1)
	for i := 0; i < 300; i++ {
		ZeroGrads([]*Tensor{x})
		d := Add(x, Scale(target, -1))
		loss := Sum(Mul(d, d))
		loss.Backward()
		opt.Step()
	}
	for i := range x.Data {
		if !almostEqual(x.Data[i], target.Data[i], 1e-2) {
			t.Fatalf("x[%d] = %v, want %v", i, x.Data[i], target.Data[i])
		}
	}
}

func TestAdamClipNorm(t *testing.T) {
	x := Param(1, 2)
	x.Grad = []float64{30, 40} // norm 50
	opt := NewAdam([]*Tensor{x}, 0.1)
	opt.ClipNorm = 5
	opt.clip()
	norm := math.Hypot(x.Grad[0], x.Grad[1])
	if !almostEqual(norm, 5, 1e-9) {
		t.Fatalf("clipped norm = %v, want 5", norm)
	}
}

func TestXavierUniformBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	p := New(50, 50)
	XavierUniform(p, rng)
	limit := math.Sqrt(6.0 / 100)
	for _, v := range p.Data {
		if math.Abs(v) > limit {
			t.Fatalf("xavier value %v beyond limit %v", v, limit)
		}
	}
	if !slices.ContainsFunc(p.Data, func(v float64) bool { return v != 0 }) {
		t.Fatal("xavier left tensor all-zero")
	}
}

func TestNormalInitStd(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	p := New(100, 100)
	NormalInit(p, 0.02, rng)
	s := 0.0
	for _, v := range p.Data {
		s += v * v
	}
	std := math.Sqrt(s / float64(len(p.Data)))
	if std < 0.015 || std > 0.025 {
		t.Fatalf("sample std = %v, want ≈0.02", std)
	}
}

func TestItemPanicsOnMatrix(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2).Item()
}

func TestLogReciprocalGrad(t *testing.T) {
	a := Param(1, 3)
	a.Data[0], a.Data[1], a.Data[2] = 0.5, 2, 3
	checkGrads(t, []*Tensor{a}, func() *Tensor {
		a.ZeroGrad()
		return Sum(Add(Log(a), Reciprocal(a)))
	})
}

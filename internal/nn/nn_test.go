package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func TestLinearForwardShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear(4, 6, rng)
	x := tensor.New(3, 4)
	y := l.Forward(x)
	if y.Rows != 3 || y.Cols != 6 {
		t.Fatalf("linear output %dx%d, want 3x6", y.Rows, y.Cols)
	}
	if l.In() != 4 || l.Out() != 6 {
		t.Fatalf("In/Out = %d/%d", l.In(), l.Out())
	}
}

func TestLinearBiasApplied(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewLinear(2, 2, rng)
	l.W.Fill(0)
	l.B.Data[0], l.B.Data[1] = 3, -1
	x := tensor.New(1, 2)
	y := l.Forward(x)
	if y.Data[0] != 3 || y.Data[1] != -1 {
		t.Fatalf("bias not applied: %v", y.Data)
	}
}

func TestLayerNormNormalizes(t *testing.T) {
	ln := NewLayerNorm(8)
	x := tensor.New(2, 8)
	for i := range x.Data {
		x.Data[i] = float64(i) * 3
	}
	y := ln.Forward(x)
	for r := 0; r < 2; r++ {
		sum := 0.0
		for _, v := range y.Row(r) {
			sum += v
		}
		if math.Abs(sum/8) > 1e-9 {
			t.Fatalf("row %d mean = %v", r, sum/8)
		}
	}
}

func TestEmbeddingLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	e := NewEmbedding(10, 4, rng)
	out := e.Forward([]int{3, 3, 7})
	if out.Rows != 3 || out.Cols != 4 {
		t.Fatalf("embedding output %dx%d", out.Rows, out.Cols)
	}
	for j := 0; j < 4; j++ {
		if out.At(0, j) != out.At(1, j) {
			t.Fatal("same id should embed identically")
		}
		if out.At(0, j) != e.Table.At(3, j) {
			t.Fatal("embedding should gather table rows")
		}
	}
}

func TestAttentionShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := NewMultiHeadAttention(8, 2, rng)
	q := tensor.New(3, 8)
	kv := tensor.New(5, 8)
	out := a.Forward(q, kv, nil)
	if out.Rows != 3 || out.Cols != 8 {
		t.Fatalf("attention output %dx%d, want 3x8", out.Rows, out.Cols)
	}
}

func TestAttentionHeadsMustDivide(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for indivisible heads")
		}
	}()
	NewMultiHeadAttention(10, 3, rand.New(rand.NewSource(5)))
}

func TestAttentionMaskBlocksPositions(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := NewMultiHeadAttention(4, 1, rng)
	q := tensor.New(1, 4)
	for i := range q.Data {
		q.Data[i] = rng.NormFloat64()
	}
	kv := tensor.New(3, 4)
	for i := range kv.Data {
		kv.Data[i] = rng.NormFloat64()
	}
	// Mask out position 2 entirely; result must equal attention over the
	// first two kv rows only.
	mask := PaddingMask(1, []bool{false, false, true})
	masked := a.Forward(q, kv, mask)
	kvShort := tensor.SliceRows(kv, 0, 2)
	short := a.Forward(q, kvShort, nil)
	for i := range masked.Data {
		if math.Abs(masked.Data[i]-short.Data[i]) > 1e-9 {
			t.Fatalf("masked attention differs from truncated kv at %d: %v vs %v", i, masked.Data[i], short.Data[i])
		}
	}
}

// PaddingMask builds an additive Lq × Lkv mask hiding key positions where
// keyPad[j] is true. Returns nil when nothing is padded, avoiding per-call
// allocation on the common unpadded path.
func PaddingMask(lq int, keyPad []bool) *tensor.Tensor {
	any := false
	for _, p := range keyPad {
		if p {
			any = true
			break
		}
	}
	if !any {
		return nil
	}
	m := tensor.New(lq, len(keyPad))
	neg := math.Inf(-1)
	for i := 0; i < lq; i++ {
		row := m.Row(i)
		for j, p := range keyPad {
			if p {
				row[j] = neg
			}
		}
	}
	return m
}

func TestPaddingMaskNilWhenUnpadded(t *testing.T) {
	if PaddingMask(4, []bool{false, false}) != nil {
		t.Fatal("want nil mask when no padding")
	}
	m := PaddingMask(2, []bool{false, true})
	if m == nil || !math.IsInf(m.At(0, 1), -1) || m.At(0, 0) != 0 {
		t.Fatalf("bad mask: %+v", m)
	}
}

func TestTransformerBlockSelfForward(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := NewTransformerBlock(8, 2, 16, rng)
	x := tensor.New(4, 8)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	y := b.SelfForward(x, nil)
	if y.Rows != 4 || y.Cols != 8 {
		t.Fatalf("block output %dx%d", y.Rows, y.Cols)
	}
	// Post-norm output rows should be normalized (unit variance w.r.t. the
	// learned gamma=1, beta=0 init).
	for r := 0; r < y.Rows; r++ {
		mean := 0.0
		for _, v := range y.Row(r) {
			mean += v
		}
		if math.Abs(mean/float64(y.Cols)) > 1e-9 {
			t.Fatalf("row %d not normalized, mean %v", r, mean)
		}
	}
}

func TestTransformerBlockCrossShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	b := NewTransformerBlock(8, 2, 16, rng)
	q := tensor.New(2, 8)
	kv := tensor.New(7, 8)
	y := b.Forward(q, kv, nil)
	if y.Rows != 2 || y.Cols != 8 {
		t.Fatalf("cross block output %dx%d, want 2x8", y.Rows, y.Cols)
	}
}

func TestTransformerBlockGradientsFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	b := NewTransformerBlock(4, 2, 8, rng)
	x := tensor.Param(3, 4)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	loss := tensor.Sum(b.SelfForward(x, nil))
	loss.Backward()
	for i, p := range b.Params() {
		if p.Grad == nil {
			t.Fatalf("parameter %d (%dx%d) got no gradient", i, p.Rows, p.Cols)
		}
	}
	if x.Grad == nil {
		t.Fatal("input got no gradient")
	}
}

// TestAttentionGradCheck verifies the full attention backward pass against
// numerical differentiation on a tiny instance.
func TestAttentionGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := NewMultiHeadAttention(4, 2, rng)
	q := tensor.New(2, 4)
	kv := tensor.New(3, 4)
	for i := range q.Data {
		q.Data[i] = rng.NormFloat64()
	}
	for i := range kv.Data {
		kv.Data[i] = rng.NormFloat64()
	}
	forward := func() *tensor.Tensor {
		tensor.ZeroGrads(a.Params())
		out := a.Forward(q, kv, nil)
		return tensor.Sum(tensor.Mul(out, out))
	}
	loss := forward()
	loss.Backward()
	params := a.Params()
	analytic := make([][]float64, len(params))
	for i, p := range params {
		analytic[i] = append([]float64(nil), p.Grad...)
	}
	const h = 1e-5
	for pi, p := range params {
		// Spot-check a few elements per parameter to keep the test fast.
		for _, idx := range []int{0, len(p.Data) / 2, len(p.Data) - 1} {
			orig := p.Data[idx]
			p.Data[idx] = orig + h
			up := forward().Item()
			p.Data[idx] = orig - h
			down := forward().Item()
			p.Data[idx] = orig
			want := (up - down) / (2 * h)
			got := analytic[pi][idx]
			if math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
				t.Errorf("param %d elem %d: analytic %v numeric %v", pi, idx, got, want)
			}
		}
	}
}

func TestMLPClassifier(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := NewMLPClassifier(6, 10, 3, rng)
	x := tensor.New(2, 6)
	logits := c.Forward(x)
	if logits.Rows != 2 || logits.Cols != 3 {
		t.Fatalf("classifier output %dx%d", logits.Rows, logits.Cols)
	}
}

func TestCollectAndNumParams(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	l := NewLinear(3, 4, rng)
	ln := NewLayerNorm(4)
	ps := CollectParams(l, ln)
	if len(ps) != 4 {
		t.Fatalf("collected %d tensors, want 4", len(ps))
	}
	n := 0
	for _, p := range ps {
		n += len(p.Data)
	}
	if n != 3*4+4+4+4 {
		t.Fatalf("collected %d scalars, want %d", n, 3*4+4+4+4)
	}
}

func TestSharedBlockBetweenTowers(t *testing.T) {
	// The ADTD towers share Transformer parameters: running the same block
	// on two different inputs must produce independent graphs but shared
	// gradient accumulation.
	rng := rand.New(rand.NewSource(15))
	b := NewTransformerBlock(4, 1, 8, rng)
	x1 := tensor.New(2, 4)
	x2 := tensor.New(3, 4)
	for i := range x1.Data {
		x1.Data[i] = rng.NormFloat64()
	}
	for i := range x2.Data {
		x2.Data[i] = rng.NormFloat64()
	}
	loss := tensor.Add(tensor.Sum(b.SelfForward(x1, nil)), tensor.Sum(b.SelfForward(x2, nil)))
	loss.Backward()
	for _, p := range b.Params() {
		if p.Grad == nil {
			t.Fatal("shared parameters must accumulate gradients from both towers")
		}
	}
}

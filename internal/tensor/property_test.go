package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// genTensor builds a bounded random tensor from a seed.
func genTensor(seed int64, rows, cols int) *Tensor {
	rng := rand.New(rand.NewSource(seed))
	t := New(rows, cols)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64()
	}
	return t
}

// Property: matrix multiplication distributes over addition:
// A(B+C) = AB + AC.
func TestMatMulDistributesProperty(t *testing.T) {
	f := func(seed int64) bool {
		a := genTensor(seed, 3, 4)
		b := genTensor(seed+1, 4, 5)
		c := genTensor(seed+2, 4, 5)
		left := MatMul(a, Add(b, c))
		right := Add(MatMul(a, b), MatMul(a, c))
		for i := range left.Data {
			if math.Abs(left.Data[i]-right.Data[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: MatMulNT(a, b) equals MatMul(a, bᵀ).
func TestMatMulNTEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		a := genTensor(seed, 3, 4)
		b := genTensor(seed+1, 5, 4)
		bt := New(4, 5)
		for i := 0; i < b.Rows; i++ {
			for j := 0; j < b.Cols; j++ {
				bt.Data[j*bt.Cols+i] = b.At(i, j)
			}
		}
		x := MatMulNT(a, b)
		y := MatMul(a, bt)
		for i := range x.Data {
			if math.Abs(x.Data[i]-y.Data[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: softmax rows are stochastic (non-negative, sum to one).
func TestSoftmaxStochasticProperty(t *testing.T) {
	f := func(seed int64) bool {
		a := genTensor(seed, 4, 7)
		s := SoftmaxRows(a, nil)
		for i := 0; i < s.Rows; i++ {
			sum := 0.0
			for _, v := range s.Row(i) {
				if v < 0 {
					return false
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: layer norm output is invariant to input shift and scale (with
// gamma=1, beta=0): LN(a·x + b) = LN(x) for a > 0.
func TestLayerNormInvarianceProperty(t *testing.T) {
	gamma := New(1, 6)
	gamma.Fill(1)
	beta := New(1, 6)
	f := func(seed int64, shift float64, scaleRaw float64) bool {
		if math.IsNaN(shift) || math.IsInf(shift, 0) || math.Abs(shift) > 1e6 {
			return true
		}
		scale := math.Abs(scaleRaw)
		if scale < 0.01 || scale > 1e4 || math.IsNaN(scale) || math.IsInf(scale, 0) {
			return true
		}
		x := genTensor(seed, 2, 6)
		y1 := LayerNorm(x, gamma, beta, 1e-9)
		x2 := AddScalar(Scale(x, scale), shift)
		y2 := LayerNorm(x2, gamma, beta, 1e-9)
		for i := range y1.Data {
			if math.Abs(y1.Data[i]-y2.Data[i]) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: ConcatRows then SliceRows recovers the parts.
func TestConcatSliceInverseProperty(t *testing.T) {
	f := func(seed int64) bool {
		a := genTensor(seed, 2, 3)
		b := genTensor(seed+1, 4, 3)
		c := ConcatRows(a, b)
		backA := SliceRows(c, 0, 2)
		backB := SliceRows(c, 2, 6)
		for i := range a.Data {
			if backA.Data[i] != a.Data[i] {
				return false
			}
		}
		for i := range b.Data {
			if backB.Data[i] != b.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: sigmoid and BCE are consistent — for any logits, the BCE loss
// with targets equal to sigmoid(logits) is a stationary point (gradient 0).
func TestBCEGradientZeroAtTargetsProperty(t *testing.T) {
	f := func(seed int64) bool {
		logits := genTensor(seed, 2, 3)
		logits.SetRequiresGrad(true)
		targets := New(2, 3)
		for i, x := range logits.Data {
			targets.Data[i] = 1 / (1 + math.Exp(-x))
		}
		loss := BCEWithLogits(logits, targets)
		loss.Backward()
		for _, g := range logits.Grad {
			if math.Abs(g) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

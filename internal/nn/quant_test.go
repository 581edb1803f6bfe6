package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// withQuantize runs f with the process-wide quantization preference set to
// on, restoring the previous value afterwards.
func withQuantize(t *testing.T, on bool, f func()) {
	t.Helper()
	prev := tensor.QuantizeEnabled()
	tensor.SetQuantize(on)
	defer tensor.SetQuantize(prev)
	f()
}

// maxAbsDelta returns (max |a-b|, max |b|) for tolerance checks scaled by
// the reference output's magnitude.
func maxAbsDelta(t *testing.T, name string, a, b *tensor.Tensor) (float64, float64) {
	t.Helper()
	if a.Rows != b.Rows || a.Cols != b.Cols {
		t.Fatalf("%s: quant %dx%d vs fp64 %dx%d", name, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	var dmax, ref float64
	for i := range a.Data {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > dmax {
			dmax = d
		}
		if v := math.Abs(b.Data[i]); v > ref {
			ref = v
		}
	}
	return dmax, ref
}

// The quantized path is deliberately lossy: unlike the fp64 fast path's
// bit-exactness contract, it promises closeness. These layer-level bounds
// (fractions of the reference output's absmax) are the documented tolerance
// of DESIGN.md §11; tightening the kernels may tighten them, loosening them
// needs a documented reason.
func TestQuantForwardTolerance(t *testing.T) {
	if !tensor.QuantizeAvailable() {
		t.Skip("no int8 SIMD kernels on this CPU")
	}
	rng := rand.New(rand.NewSource(31))

	check := func(name string, tol float64, f func() *tensor.Tensor) {
		t.Helper()
		var quant, fp *tensor.Tensor
		withQuantize(t, true, func() { quant = f() })
		withQuantize(t, false, func() { fp = f() })
		dmax, ref := maxAbsDelta(t, name, quant, fp)
		if dmax > tol*ref {
			t.Fatalf("%s: max |Δ| = %g exceeds %g (= %.1f%% of output absmax %g)",
				name, dmax, tol*ref, 100*tol, ref)
		}
		if dmax == 0 {
			t.Fatalf("%s: quantized output identical to fp64 — int8 path not taken", name)
		}
	}

	a := NewMultiHeadAttention(64, 4, rng)
	evalMode(a)
	x := randFilled(rng, 128, 64)
	kv := randFilled(rng, 192, 64)
	check("self-attention", 0.05, func() *tensor.Tensor { return a.Forward(x, x, nil) })
	check("cross-attention-spans", 0.05, func() *tensor.Tensor {
		return attendSpans(a, x, kv, randSpans(rand.New(rand.NewSource(32)), 128, 192))
	})

	blk := NewTransformerBlock(64, 4, 128, rng)
	evalMode(blk)
	// The block ends in a layer norm, which renormalizes the quantization
	// error along with the signal; the bound stays the same scale.
	check("transformer-block", 0.05, func() *tensor.Tensor { return blk.SelfForward(x, nil) })

	c := NewMLPClassifier(86, 64, 62, rng)
	evalMode(c)
	cx := randFilled(rng, 20, 86)
	check("classifier", 0.05, func() *tensor.Tensor { return c.Forward(cx) })
}

// Quantization must never be selected outside the NoGrad fast path: a
// grad-requiring input keeps the composed autograd ops even with the
// process default on.
func TestQuantSkippedUnderGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	a := NewMultiHeadAttention(64, 4, rng)
	evalMode(a)
	x := randFilled(rng, 8, 64)
	x.SetRequiresGrad(true)
	withQuantize(t, true, func() {
		out := a.Forward(x, x, nil)
		if !out.RequiresGrad() {
			t.Fatal("grad-requiring input produced a detached output with quantization on")
		}
	})
}

// Int8 packs cache transposed, scaled copies of the weights, so an in-place
// weight mutation must be followed by InvalidateFastPath. The test pins both
// halves of the contract: the stale pack keeps serving the old weights until
// invalidation, and invalidation makes the next forward track the new ones.
func TestQuantPackInvalidation(t *testing.T) {
	if !tensor.QuantizeAvailable() {
		t.Skip("no int8 SIMD kernels on this CPU")
	}
	rng := rand.New(rand.NewSource(34))
	c := NewMLPClassifier(86, 64, 62, rng)
	evalMode(c)
	x := randFilled(rng, 20, 86)

	withQuantize(t, true, func() {
		before := c.Forward(x)
		for i := range c.Hidden.W.Data {
			c.Hidden.W.Data[i] *= 2
		}
		stale := c.Forward(x)
		if d, _ := maxAbsDelta(t, "stale", stale, before); d != 0 {
			t.Fatalf("weights mutated without invalidation changed the output (Δ %g): pack not cached?", d)
		}
		c.InvalidateFastPath()
		fresh := c.Forward(x)
		if d, _ := maxAbsDelta(t, "fresh", fresh, before); d == 0 {
			t.Fatal("InvalidateFastPath did not drop the stale int8 pack")
		}
	})
}

// Same contract for the attention projections, whose quantized pack rides on
// the fused [WQ|WK|WV] pack.
func TestQuantAttentionPackInvalidation(t *testing.T) {
	if !tensor.QuantizeAvailable() {
		t.Skip("no int8 SIMD kernels on this CPU")
	}
	rng := rand.New(rand.NewSource(35))
	a := NewMultiHeadAttention(64, 4, rng)
	evalMode(a)
	x := randFilled(rng, 32, 64)

	withQuantize(t, true, func() {
		before := a.Forward(x, x, nil)
		for i := range a.WQ.W.Data {
			a.WQ.W.Data[i] *= 2
		}
		a.InvalidateFastPath()
		fresh := a.Forward(x, x, nil)
		if d, _ := maxAbsDelta(t, "fresh", fresh, before); d == 0 {
			t.Fatal("InvalidateFastPath did not drop the stale attention packs")
		}
	})
}

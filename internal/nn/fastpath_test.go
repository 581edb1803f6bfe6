package nn

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// bothPaths runs f on the frozen module (the fused NoGrad kernels) and again
// with its parameters requiring grad (the composed autograd ops), then
// freezes it again, and compares the outputs element-for-element with == :
// the fast path promises bit-exactness, not mere closeness, so serving
// results cannot drift from what training computes.
func bothPaths(t *testing.T, name string, mod Module, f func() *tensor.Tensor) {
	t.Helper()
	fast := f()
	for _, p := range mod.Params() {
		p.SetRequiresGrad(true)
	}
	slow := f()
	evalMode(mod)
	if fast.RequiresGrad() || !slow.RequiresGrad() {
		t.Fatalf("%s: fast run requires grad %v, slow run %v: the paths were not the fused and composed ones",
			name, fast.RequiresGrad(), slow.RequiresGrad())
	}
	if fast.Rows != slow.Rows || fast.Cols != slow.Cols {
		t.Fatalf("%s: fast %dx%d vs slow %dx%d", name, fast.Rows, fast.Cols, slow.Rows, slow.Cols)
	}
	for i := range fast.Data {
		if fast.Data[i] != slow.Data[i] {
			t.Fatalf("%s: element %d: fast %v != slow %v (Δ %g)",
				name, i, fast.Data[i], slow.Data[i], fast.Data[i]-slow.Data[i])
		}
	}
}

func randFilled(rng *rand.Rand, rows, cols int) *tensor.Tensor {
	x := tensor.New(rows, cols)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	return x
}

// randSpans tiles the query rows with random groups, each seeing two random
// ascending key ranges with at least one visible key (a query that can
// attend to nothing never occurs in the model: content positions always see
// their own column).
func randSpans(rng *rand.Rand, lq, lkv int) []tensor.AttnSpan {
	var spans []tensor.AttnSpan
	for lo := 0; lo < lq; {
		hi := lo + 1 + rng.Intn(6)
		if hi > lq {
			hi = lq
		}
		a0 := rng.Intn(lkv)
		a1 := a0 + 1 + rng.Intn(lkv-a0)
		b0 := a1 + rng.Intn(lkv-a1+1)
		b1 := b0 + rng.Intn(lkv-b0+1)
		spans = append(spans, tensor.AttnSpan{RowLo: lo, RowHi: hi, A: [2]int{a0, a1}, B: [2]int{b0, b1}})
		lo = hi
	}
	return spans
}

// attendSpans runs one attention layer under key spans the way the block
// does: fused over the spans when nothing requires grad, composed under the
// equivalent dense mask otherwise.
func attendSpans(a *MultiHeadAttention, q, kv *tensor.Tensor, spans []tensor.AttnSpan) *tensor.Tensor {
	if !a.fastEligible(q, kv) {
		return a.Forward(q, kv, tensor.DenseMask(spans, q.Rows, kv.Rows))
	}
	ws := tensor.AcquireWorkspace()
	defer tensor.ReleaseWorkspace(ws)
	out := tensor.InferenceResult(q.Rows, a.Hidden, q, kv)
	a.forwardFastInto(ws, out.Data, q.Data, q.Rows, kv.Data, kv.Rows, spans)
	return out
}

// TestAttentionFastPathBitExact covers self- and cross-attention, masked and
// unmasked, at the repro head width (16, the specialized score kernel) and
// an odd width (the generic kernel).
func TestAttentionFastPathBitExact(t *testing.T) {
	cases := []struct {
		name   string
		hidden int
		heads  int
		lq     int
		lkv    int
		cross  bool
		masked bool
	}{
		{"self-headdim16", 64, 4, 128, 128, false, false},
		{"self-headdim16-masked", 64, 4, 37, 37, false, true},
		{"cross-headdim16", 64, 4, 9, 33, true, false},
		{"cross-headdim16-masked", 64, 4, 9, 33, true, true},
		{"self-headdim12", 48, 4, 21, 21, false, false},
		{"cross-headdim12-masked", 48, 4, 13, 29, true, true},
	}
	for _, tc := range cases {
		rng := rand.New(rand.NewSource(11))
		a := NewMultiHeadAttention(tc.hidden, tc.heads, rng)
		evalMode(a)
		q := randFilled(rng, tc.lq, tc.hidden)
		kv := q
		if tc.cross {
			kv = randFilled(rng, tc.lkv, tc.hidden)
		}
		var spans []tensor.AttnSpan
		if tc.masked {
			spans = randSpans(rng, tc.lq, tc.lkv)
		}
		bothPaths(t, tc.name, a, func() *tensor.Tensor { return attendSpans(a, q, kv, spans) })
	}
}

func TestTransformerBlockFastPathBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	blk := NewTransformerBlock(64, 4, 128, rng)
	evalMode(blk)
	x := randFilled(rng, 48, 64)
	kv := randFilled(rng, 80, 64)
	bothPaths(t, "self", blk, func() *tensor.Tensor { return blk.SelfForward(x, nil) })
	ws := tensor.NewWorkspace()
	spans := randSpans(rand.New(rand.NewSource(13)), 48, 48)
	bothPaths(t, "self-spans", blk, func() *tensor.Tensor { defer ws.Reset(); return blk.ForwardWS(ws, x, x, spans) })
	bothPaths(t, "cross", blk, func() *tensor.Tensor { return blk.Forward(x, kv, nil) })
	cross := randSpans(rand.New(rand.NewSource(19)), 48, 48+80)
	bothPaths(t, "kv-concat-spans", blk, func() *tensor.Tensor {
		defer ws.Reset()
		return blk.ForwardKVConcatWS(ws, x, []*tensor.Tensor{kv, x}, cross)
	})
}

func TestLayerNormFastPathBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	ln := NewLayerNorm(64)
	evalMode(ln)
	// Non-trivial gain/shift so the affine part is exercised too.
	for i := range ln.Gamma.Data {
		ln.Gamma.Data[i] = 1 + 0.1*rng.NormFloat64()
		ln.Beta.Data[i] = 0.1 * rng.NormFloat64()
	}
	x := randFilled(rng, 33, 64)
	bothPaths(t, "layernorm", ln, func() *tensor.Tensor { return ln.Forward(x) })
}

func TestLinearAndClassifierFastPathBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	l := NewLinear(70, 40, rng)
	evalMode(l)
	x := randFilled(rng, 17, 70)
	bothPaths(t, "linear", l, func() *tensor.Tensor { return l.Forward(x) })

	c := NewMLPClassifier(86, 64, 62, rng)
	evalMode(c)
	cx := randFilled(rng, 20, 86)
	bothPaths(t, "classifier", c, func() *tensor.Tensor { return c.Forward(cx) })
}

// TestFastPathSkippedUnderGrad: an input that requires grad must never take
// the fused path — training still records the autograd graph.
func TestFastPathSkippedUnderGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	a := NewMultiHeadAttention(64, 4, rng)
	evalMode(a)
	x := randFilled(rng, 8, 64)
	x.SetRequiresGrad(true)
	out := a.Forward(x, x, nil)
	if !out.RequiresGrad() {
		t.Fatal("grad-requiring input produced a detached output: fast path taken during training")
	}
}

// Allocation ceilings for the NoGrad serving path. The fused kernels write
// into pooled workspaces, so steady-state inference must stay within a
// handful of allocations per forward regardless of sequence length.
func TestNoGradAttentionAllocCeiling(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := NewMultiHeadAttention(64, 4, rng)
	evalMode(a)
	x := randFilled(rng, 128, 64)
	a.Forward(x, x, nil) // warm the workspace and arena pools
	const ceiling = 16
	if got := testing.AllocsPerRun(20, func() { a.Forward(x, x, nil) }); got > ceiling {
		t.Fatalf("NoGrad attention: %.0f allocs/op, ceiling %d", got, ceiling)
	}
}

func TestNoGradLayerNormAllocCeiling(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	ln := NewLayerNorm(64)
	evalMode(ln)
	x := randFilled(rng, 128, 64)
	ln.Forward(x)
	const ceiling = 8
	if got := testing.AllocsPerRun(20, func() { ln.Forward(x) }); got > ceiling {
		t.Fatalf("NoGrad layer-norm: %.0f allocs/op, ceiling %d", got, ceiling)
	}
}

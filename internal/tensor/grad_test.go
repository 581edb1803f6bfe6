package tensor

import (
	"math/rand"
	"runtime"
	"testing"
)

// gomaxprocs sets GOMAXPROCS, the width the sharded kernels split to
// (parallelRows), so they split work even on single-CPU runners, and
// restores the old value on cleanup.
func gomaxprocs(t testing.TB, n int) {
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// adamFixture builds a parameter set shaped like a repro-scale model
// (embedding tables large enough to cross the sharding threshold) with
// deterministic weights and gradients.
func adamFixture(seed int64) []*Tensor {
	rng := rand.New(rand.NewSource(seed))
	params := []*Tensor{Param(3000, 64), Param(64, 3000), Param(256, 64), Param(1, 64), Param(1, 2)}
	for _, p := range params {
		XavierUniform(p, rng)
		p.ensureGrad()
		for i := range p.Grad {
			p.Grad[i] = rng.NormFloat64() * 0.05
		}
	}
	return params
}

func TestAdamStepParallelBitExact(t *testing.T) {
	gomaxprocs(t, 8)
	seq := adamFixture(7)
	par := adamFixture(7)
	optSeq := NewAdam(seq, 1.3e-3)
	optPar := NewAdam(par, 1.3e-3)
	for _, o := range []*Adam{optSeq, optPar} {
		o.ClipNorm = 1
		o.WeightDecay = 1e-4
	}
	rng := rand.New(rand.NewSource(9))
	for step := 0; step < 4; step++ {
		// Refresh gradients identically on both sides.
		base := rng.Int63()
		for _, params := range [][]*Tensor{seq, par} {
			g := rand.New(rand.NewSource(base))
			for _, p := range params {
				for i := range p.Grad {
					p.Grad[i] = g.NormFloat64()
				}
			}
		}
		runtime.GOMAXPROCS(1)
		optSeq.Step()
		runtime.GOMAXPROCS(8)
		optPar.Step()
		if optSeq.LastGradNorm() != optPar.LastGradNorm() {
			t.Fatalf("step %d: grad norm differs: %v vs %v", step, optSeq.LastGradNorm(), optPar.LastGradNorm())
		}
		for i := range seq {
			for j := range seq[i].Data {
				if seq[i].Data[j] != par[i].Data[j] {
					t.Fatalf("step %d: param %d elem %d differs: %v vs %v", step, i, j, seq[i].Data[j], par[i].Data[j])
				}
			}
			for j := range optSeq.m[i] {
				if optSeq.m[i][j] != optPar.m[i][j] || optSeq.v[i][j] != optPar.v[i][j] {
					t.Fatalf("step %d: optimizer state %d/%d differs", step, i, j)
				}
			}
		}
	}
}

func TestZeroGradsParallelClears(t *testing.T) {
	gomaxprocs(t, 8)
	params := adamFixture(3)
	ZeroGrads(params)
	for i, p := range params {
		for j, g := range p.Grad {
			if g != 0 {
				t.Fatalf("param %d elem %d not zeroed: %v", i, j, g)
			}
		}
	}
	// nil grads are skipped.
	params[0].Grad = nil
	ZeroGrads(params)
}

func TestAccumAndScaleGradsBitExact(t *testing.T) {
	gomaxprocs(t, 8)
	dst := adamFixture(11)
	src := adamFixture(12)
	// Sequential reference.
	want := make([][]float64, len(dst))
	for i, p := range dst {
		want[i] = append([]float64(nil), p.Grad...)
		for j, g := range src[i].Grad {
			want[i][j] = (want[i][j] + g) * 0.25
		}
	}
	AccumGrads(dst, src)
	ScaleGrads(dst, 0.25)
	for i, p := range dst {
		for j, g := range p.Grad {
			if g != want[i][j] {
				t.Fatalf("param %d elem %d: got %v want %v", i, j, g, want[i][j])
			}
		}
	}
}

func TestAccumGradsAllocatesAndSkipsNil(t *testing.T) {
	dst := []*Tensor{Param(4, 4), Param(2, 2)}
	src := []*Tensor{Param(4, 4), Param(2, 2)}
	src[0].ensureGrad()
	for i := range src[0].Grad {
		src[0].Grad[i] = float64(i)
	}
	// src[1].Grad stays nil.
	AccumGrads(dst, src)
	if dst[0].Grad == nil {
		t.Fatal("dst grad not allocated")
	}
	for i, g := range dst[0].Grad {
		if g != float64(i) {
			t.Fatalf("elem %d: got %v", i, g)
		}
	}
	if dst[1].Grad != nil {
		t.Fatal("nil src grad should leave dst untouched")
	}
}

func TestAliasDataSharesBuffers(t *testing.T) {
	canon := []*Tensor{Param(3, 3), Param(1, 3)}
	replica := []*Tensor{Param(3, 3), Param(1, 3)}
	canon[0].Data[0] = 42
	AliasData(replica, canon)
	if replica[0].Data[0] != 42 {
		t.Fatal("replica does not see canonical data")
	}
	canon[0].Data[1] = 7
	if replica[0].Data[1] != 7 {
		t.Fatal("replica does not alias canonical buffer")
	}
	// Gradients stay independent.
	replica[0].ensureGrad()
	replica[0].Grad[0] = 1
	if canon[0].Grad != nil {
		t.Fatal("aliasing must not share gradient state")
	}
}

func TestAliasDataPanicsOnShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	AliasData([]*Tensor{Param(2, 2)}, []*Tensor{Param(2, 3)})
}

func TestGradArenaAttachZeroRelease(t *testing.T) {
	params := []*Tensor{Param(100, 100), Param(1, 8)}
	arena := AttachGrads(params)
	for i, p := range params {
		if p.Grad == nil || len(p.Grad) != len(p.Data) {
			t.Fatalf("param %d: grad not attached", i)
		}
		for _, g := range p.Grad {
			if g != 0 {
				t.Fatal("attached grads must start zeroed")
			}
		}
	}
	params[0].Grad[0] = 5
	ZeroGrads(params)
	if params[0].Grad[0] != 0 {
		t.Fatal("ZeroGrads did not clear an attached gradient")
	}
	arena.Release()
	for i, p := range params {
		if p.Grad != nil || p.gradPooled {
			t.Fatalf("param %d: grad not released", i)
		}
	}
}

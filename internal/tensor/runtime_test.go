package tensor

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// withParallelism runs f at the given worker setting and restores the
// default afterwards.
func withParallelism(t *testing.T, n int, f func()) {
	t.Helper()
	old := Parallelism()
	SetParallelism(n)
	defer SetParallelism(old)
	f()
}

// TestParallelMatMulEquivalence checks that every sharded kernel matches the
// sequential reference within 1e-12 (the kernels preserve per-element
// accumulation order, so they should in fact be bit-exact), including odd
// shapes that do not divide evenly into shards.
func TestParallelMatMulEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shapes := [][3]int{
		{129, 67, 131}, // odd sizes, above the parallel threshold
		{128, 128, 128},
		{200, 64, 96},
		{8, 8, 8}, // below threshold: must hit the sequential fallback
	}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := benchTensor(rng, m, k)
		b := benchTensor(rng, k, n)
		bt := benchTensor(rng, n, k) // for the NT kernel

		var seq, par struct{ mm, acc, nt []float64 }
		run := func(dst *struct{ mm, acc, nt []float64 }) {
			dst.mm = make([]float64, m*n)
			matmulInto(dst.mm, a.Data, b.Data, m, k, n)
			dst.acc = make([]float64, m*n)
			for i := range dst.acc {
				dst.acc[i] = 1
			}
			matmulAccInto(dst.acc, a.Data, b.Data, m, k, n)
			dst.nt = make([]float64, m*n)
			matmulNTInto(dst.nt, a.Data, bt.Data, m, k, n)
		}
		withParallelism(t, 1, func() { run(&seq) })
		withParallelism(t, 8, func() { run(&par) })

		check := func(name string, s, p []float64) {
			for i := range s {
				if math.Abs(s[i]-p[i]) > 1e-12 {
					t.Fatalf("%s %dx%dx%d: element %d differs: seq %v par %v", name, m, k, n, i, s[i], p[i])
				}
			}
		}
		check("matmulInto", seq.mm, par.mm)
		check("matmulAccInto", seq.acc, par.acc)
		check("matmulNTInto", seq.nt, par.nt)
	}
}

// TestParallelKernelsConcurrentCallers hammers the shared worker pool from
// many goroutines at once, as the pipeline's TP2 workers do. Run under
// -race this also validates the pool's synchronization.
func TestParallelKernelsConcurrentCallers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, k, n := 96, 96, 96
	a := benchTensor(rng, m, k)
	b := benchTensor(rng, k, n)
	want := make([]float64, m*n)
	withParallelism(t, 1, func() { matmulInto(want, a.Data, b.Data, m, k, n) })

	withParallelism(t, 4, func() {
		var wg sync.WaitGroup
		errs := make(chan int, 8)
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got := make([]float64, m*n)
				for it := 0; it < 20; it++ {
					matmulInto(got, a.Data, b.Data, m, k, n)
					for i := range got {
						if math.Abs(got[i]-want[i]) > 1e-12 {
							errs <- i
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		if i, bad := <-errs; bad {
			t.Fatalf("concurrent matmul diverged at element %d", i)
		}
	})
}

// TestSetParallelismClamps verifies the setter's floor.
func TestSetParallelismClamps(t *testing.T) {
	old := Parallelism()
	defer SetParallelism(old)
	SetParallelism(-3)
	if Parallelism() != 1 {
		t.Fatalf("Parallelism() = %d after SetParallelism(-3), want 1", Parallelism())
	}
}

// TestReleaseGraphRecyclesOpOutputs checks that release frees op outputs,
// leaves leaf tensors intact, and that a training loop interleaved with
// ReleaseGraph produces exactly the same parameters as one without (no
// buffer is recycled while still referenced).
func TestReleaseGraphRecyclesOpOutputs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))

	runLoop := func(release bool) *Tensor {
		w := Param(64, 64)
		XavierUniform(w, rand.New(rand.NewSource(5)))
		opt := NewSGD([]*Tensor{w}, 0.01, 0.9)
		for step := 0; step < 5; step++ {
			x := benchTensor(rand.New(rand.NewSource(int64(step))), 32, 64)
			opt.ZeroGrads()
			loss := Sum(GELU(MatMul(x, w)))
			loss.Backward()
			opt.Step()
			if release {
				ReleaseGraph(loss)
				if loss.Data != nil {
					t.Fatal("released root must have nil Data")
				}
				if x.Data == nil {
					t.Fatal("leaf input must survive ReleaseGraph")
				}
			}
			if w.Data == nil || w.Grad == nil {
				t.Fatal("parameter data/grad must survive ReleaseGraph")
			}
		}
		return w
	}

	plain := runLoop(false)
	released := runLoop(true)
	for i := range plain.Data {
		if plain.Data[i] != released.Data[i] {
			t.Fatalf("param[%d] diverged with arena release: %v vs %v", i, plain.Data[i], released.Data[i])
		}
	}
	_ = rng
}

// TestReleaseGraphInferenceGraph releases a no-grad graph: op outputs are
// freed even though no backward state was recorded.
func TestReleaseGraphInferenceGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := benchTensor(rng, 64, 64)
	b := benchTensor(rng, 64, 64)
	c := MatMul(a, b)
	d := GELU(c)
	got := d.At(0, 0)
	if math.IsNaN(got) {
		t.Fatal("bad forward value")
	}
	ReleaseGraph(d)
	if c.Data != nil || d.Data != nil {
		t.Fatal("op outputs must be freed")
	}
	if a.Data == nil || b.Data == nil {
		t.Fatal("inputs must survive")
	}
}

// TestArenaDisabled verifies SetArena(false) switches to plain allocation
// while ReleaseGraph still detaches the graph.
func TestArenaDisabled(t *testing.T) {
	SetArena(false)
	defer SetArena(true)
	a := benchTensor(rand.New(rand.NewSource(1)), 16, 16)
	b := benchTensor(rand.New(rand.NewSource(2)), 16, 16)
	c := MatMul(a, b)
	if c.pooled {
		t.Fatal("arena disabled but output marked pooled")
	}
	ReleaseGraph(c)
	if c.Data != nil {
		t.Fatal("ReleaseGraph must still detach with arena off")
	}
}

// TestSoftmaxRowsFullyMaskedRow is the regression test for the masked-row
// bug: a row whose mask is all -Inf must come out as zeros (not NaN) and
// the backward pass must not propagate gradients through it.
func TestSoftmaxRowsFullyMaskedRow(t *testing.T) {
	neg := math.Inf(-1)
	a := Param(2, 3)
	for i, v := range []float64{0.5, -1, 2, 0.3, 0.7, -0.2} {
		a.Data[i] = v
	}
	mask := New(2, 3)
	for j := 0; j < 3; j++ {
		mask.Set(1, j, neg) // second row fully masked
	}
	out := SoftmaxRows(a, mask)
	sum0 := 0.0
	for j := 0; j < 3; j++ {
		if v := out.At(1, j); v != 0 {
			t.Fatalf("masked row element %d = %v, want 0", j, v)
		}
		sum0 += out.At(0, j)
	}
	if math.Abs(sum0-1) > 1e-12 {
		t.Fatalf("unmasked row sums to %v, want 1", sum0)
	}

	loss := Sum(Mul(out, out))
	loss.Backward()
	for i, g := range a.Grad {
		if math.IsNaN(g) || math.IsInf(g, 0) {
			t.Fatalf("grad[%d] = %v, want finite", i, g)
		}
	}
	for j := 0; j < 3; j++ {
		if g := a.Grad[3+j]; g != 0 {
			t.Fatalf("masked row grad[%d] = %v, want 0", j, g)
		}
	}
}

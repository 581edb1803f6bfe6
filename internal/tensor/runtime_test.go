package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestParallelMatMulEquivalence checks that every sharded kernel matches the
// sequential reference at GOMAXPROCS 1 bit for bit (the kernels preserve
// per-element accumulation order), including odd shapes that do not divide
// evenly into shards. 256³ is the shape that shards on every kernel set,
// the AVX-512 one included; the smaller ones shard only where the row
// kernel is charged more (mulRowCost).
func TestParallelMatMulEquivalence(t *testing.T) {
	gomaxprocs(t, 8)
	rng := rand.New(rand.NewSource(42))
	shapes := []struct {
		m, k, n int
		shards  bool // must split into more than one shard at GOMAXPROCS 8
	}{
		{129, 67, 131, false}, // odd sizes
		{128, 128, 128, false},
		{200, 64, 96, false},
		{256, 256, 256, true},
		{8, 8, 8, false}, // below threshold: the sequential fallback
	}
	for _, sh := range shapes {
		m, k, n := sh.m, sh.k, sh.n
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
		runtime.GOMAXPROCS(1)
		run(&seq)
		runtime.GOMAXPROCS(8)
		if s := shardCount(m, mulRowCost(k, n)); sh.shards && s < 2 {
			t.Fatalf("%dx%dx%d: matmul runs as %d shard at GOMAXPROCS 8, want more", m, k, n, s)
		}
		run(&par)

		check := func(name string, s, p []float64) {
			for i := range s {
				if s[i] != p[i] {
					t.Fatalf("%s %dx%dx%d: element %d differs: seq %v par %v", name, m, k, n, i, s[i], p[i])
				}
			}
		}
		check("matmulInto", seq.mm, par.mm)
		check("matmulAccInto", seq.acc, par.acc)
		check("matmulNTInto", seq.nt, par.nt)
	}
}

// TestParallelKernelsConcurrentCallers runs a sharding matmul from many
// goroutines at once, as the pipeline's workers would at paper scale, so
// callers compete for the borrowed cores. Run under -race this also
// validates the sharding's synchronization.
func TestParallelKernelsConcurrentCallers(t *testing.T) {
	gomaxprocs(t, 1)
	rng := rand.New(rand.NewSource(7))
	m, k, n := 256, 256, 256
	a := benchTensor(rng, m, k)
	b := benchTensor(rng, k, n)
	want := make([]float64, m*n)
	matmulInto(want, a.Data, b.Data, m, k, n)

	runtime.GOMAXPROCS(4)
	if s := shardCount(m, mulRowCost(k, n)); s < 2 {
		t.Fatalf("%d³ matmul runs as %d shard at GOMAXPROCS 4, want more", m, s)
	}
	var wg sync.WaitGroup
	errs := make(chan int, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := make([]float64, m*n)
			for it := 0; it < 4; it++ {
				matmulInto(got, a.Data, b.Data, m, k, n)
				for i := range got {
					if got[i] != want[i] {
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
}

// TestParallelRowsBorrowBound checks the process-wide bound: with 16
// callers sharding at once at GOMAXPROCS 4, no shard ever sees more than
// GOMAXPROCS−1 = 3 borrowed goroutines running, and every product still
// equals the GOMAXPROCS 1 reference bit for bit.
func TestParallelRowsBorrowBound(t *testing.T) {
	gomaxprocs(t, 1)
	rng := rand.New(rand.NewSource(11))
	m, k, n := 256, 256, 256
	a := benchTensor(rng, m, k)
	b := benchTensor(rng, k, n)
	var high atomic.Int32
	product := func(out []float64) {
		parallelRows(m, mulRowCost(k, n), func(lo, hi int) {
			for now := borrowed.Load(); ; {
				h := high.Load()
				if now <= h || high.CompareAndSwap(h, now) {
					break
				}
			}
			mulRowRange(out, a.Data, b.Data, lo, hi, k, n, n, 0, true, nil)
		})
	}
	want := make([]float64, m*n)
	product(want)
	if h := high.Load(); h != 0 {
		t.Fatalf("GOMAXPROCS 1 borrowed %d goroutines, want 0", h)
	}

	runtime.GOMAXPROCS(4)
	var wg sync.WaitGroup
	errs := make(chan int, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := make([]float64, m*n)
			for it := 0; it < 3; it++ {
				product(got)
				for i := range got {
					if got[i] != want[i] {
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
		t.Fatalf("concurrent product diverged at element %d", i)
	}
	switch h := high.Load(); {
	case h > 3:
		t.Fatalf("%d borrowed shard goroutines ran at once at GOMAXPROCS 4, want at most 3", h)
	case h < 1:
		t.Fatal("16 sharding callers never borrowed a goroutine")
	default:
		t.Logf("borrowed high-water mark: %d", h)
	}
	if n := borrowed.Load(); n != 0 {
		t.Fatalf("%d borrowed slots still held after every caller returned", n)
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
		params := []*Tensor{w}
		opt := NewAdam(params, 0.01)
		for step := 0; step < 5; step++ {
			x := benchTensor(rand.New(rand.NewSource(int64(step))), 32, 64)
			ZeroGrads(params)
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
		mask.Row(1)[j] = neg // second row fully masked
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

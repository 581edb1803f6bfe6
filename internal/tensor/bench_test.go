package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func benchTensor(rng *rand.Rand, rows, cols int) *Tensor {
	t := New(rows, cols)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64()
	}
	return t
}

func BenchmarkMatMul64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := benchTensor(rng, 64, 64)
	y := benchTensor(rng, 64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}

func BenchmarkMatMul256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := benchTensor(rng, 256, 64)
	y := benchTensor(rng, 64, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}

func BenchmarkMatMulNTScores(b *testing.B) {
	// Attention-score shape: (L×H) × (L×H)ᵀ.
	rng := rand.New(rand.NewSource(1))
	q := benchTensor(rng, 128, 64)
	k := benchTensor(rng, 128, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulNT(q, k)
	}
}

func BenchmarkSoftmaxRows(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := benchTensor(rng, 128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SoftmaxRows(x, nil)
	}
}

func BenchmarkLayerNorm(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := benchTensor(rng, 128, 64)
	gamma := New(1, 64)
	gamma.Fill(1)
	beta := New(1, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LayerNorm(x, gamma, beta, 1e-5)
	}
}

func BenchmarkBackwardSmallGraph(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	w := Param(64, 64)
	XavierUniform(w, rng)
	x := benchTensor(rng, 32, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.ZeroGrad()
		loss := Sum(GELU(MatMul(x, w)))
		loss.Backward()
	}
}

// benchKernels runs body as one sub-benchmark per kernel choice ("avx512",
// "asm", "generic").
func benchKernels(b *testing.B, body func(b *testing.B)) {
	for _, kc := range kernelChoices {
		b.Run(kc.name, func(b *testing.B) {
			if why := kc.missing(); why != "" {
				b.Skip(why)
			}
			kc.with(b, func() { body(b) })
		})
	}
}

// BenchmarkLinearInto times dst = x·W + bias at the repro config's shapes
// (the packed QKV projection, the feed-forward up- and down-projections, and
// QKV for a merged batch of eight chunks), at two the forwards run — a
// metadata forward's QKV (30 rows) and an odd-length content forward's
// feed-forward up-projection (107 rows: the two-row tile's pairs and its
// one-row tail) — and at the paper config's QKV projection.
func BenchmarkLinearInto(b *testing.B) {
	for _, sh := range [][3]int{{128, 64, 192}, {128, 64, 128}, {128, 128, 64}, {1024, 64, 192}, {30, 64, 192}, {107, 64, 128}, {128, 312, 936}} {
		rows, in, out := sh[0], sh[1], sh[2]
		b.Run(fmt.Sprintf("%dx%dx%d", rows, in, out), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x, w := benchTensor(rng, rows, in).Data, benchTensor(rng, in, out).Data
			bias, dst := make([]float64, out), make([]float64, rows*out)
			benchKernels(b, func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					LinearInto(dst, x, rows, in, w, out, 0, out, bias)
				}
			})
		})
	}
}

// BenchmarkFusedAttentionCore times the fp64 attention core at the repro
// scale (4 heads of 16) on the shapes scan_cpu runs — metadata
// self-attention (30 rows, packed QKV, every key visible) and a content
// layer (two 54-row column spans, each seeing the 30 metadata keys and its
// own column, over packed K|V) — and on 128-token self-attention.
func BenchmarkFusedAttentionCore(b *testing.B) {
	const h = 64
	rng := rand.New(rand.NewSource(1))
	self := func(l int) AttnShape {
		return AttnShape{Lq: l, Lkv: l, Heads: 4, HeadDim: 16, QStride: 3 * h, KOff: h, VOff: 2 * h, KVStride: 3 * h, Scale: 0.25}
	}
	for _, c := range []struct {
		name    string
		sh      AttnShape
		qp, kvp []float64
		spans   []AttnSpan
	}{
		{name: "meta30", sh: self(30)},
		{name: "content2x54", sh: AttnShape{Lq: 108, Lkv: 138, Heads: 4, HeadDim: 16, QStride: h, VOff: h, KVStride: 2 * h, Scale: 0.25},
			spans: []AttnSpan{{RowLo: 0, RowHi: 54, A: [2]int{0, 30}, B: [2]int{30, 84}}, {RowLo: 54, RowHi: 108, A: [2]int{0, 30}, B: [2]int{84, 138}}}},
		{name: "self128", sh: self(128)},
	} {
		c.kvp = benchTensor(rng, c.sh.Lkv, c.sh.KVStride).Data
		c.qp = c.kvp
		if c.sh.QStride != c.sh.KVStride {
			c.qp = benchTensor(rng, c.sh.Lq, c.sh.QStride).Data
		}
		ws, dst := NewWorkspace(), make([]float64, c.sh.Lq*h)
		b.Run(c.name, func(b *testing.B) {
			benchKernels(b, func(b *testing.B) {
				FusedAttentionCore(ws, dst, c.qp, c.kvp, c.sh, c.spans)
				ws.Reset()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					FusedAttentionCore(ws, dst, c.qp, c.kvp, c.sh, c.spans)
					ws.Reset()
				}
			})
		})
	}
}

// BenchmarkExp times one scalar call of the package's Exp against
// math.Exp over softmax-range arguments. Under GODEBUG=cpu.fma=off Exp's
// fused steps run on software FMA (and math.Exp takes its other branch).
func BenchmarkExp(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	args := make([]float64, 1024)
	for i := range args {
		args[i] = -rng.ExpFloat64() * 4
	}
	for _, fn := range []struct {
		name string
		f    func(float64) float64
	}{{"tensor", Exp}, {"math", math.Exp}} {
		b.Run(fn.name, func(b *testing.B) {
			sum := 0.0
			for i := 0; i < b.N; i++ {
				sum += fn.f(args[i%len(args)])
			}
			benchSink = sum
		})
	}
}

var benchSink float64

// BenchmarkExpSubRow times softmax's exponential pass over one score row
// (scores already at or below their max) at the lengths scan_cpu meets — a
// metadata span (≈30 keys), a column span (≈54) — and at 128 keys, the
// vector kernels against the scalar Exp loop.
func BenchmarkExpSubRow(b *testing.B) {
	for _, n := range []int{29, 54, 128} {
		b.Run(fmt.Sprintf("keys%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			src, p := make([]float64, n), make([]float64, n)
			for i := range src {
				src[i] = -rng.ExpFloat64() * 4
			}
			benchKernels(b, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(p, src)
					expSubRow(p, 0)
				}
			})
		})
	}
}

// BenchmarkGELURow times GELU over one feed-forward row, 128 wide as the
// repro config's and 256 wide (unit-normal pre-activations: both tanh arms
// in most blocks).
func BenchmarkGELURow(b *testing.B) {
	for _, n := range []int{128, 256} {
		b.Run(fmt.Sprintf("width%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			src, p := make([]float64, n), make([]float64, n)
			for i := range src {
				src[i] = rng.NormFloat64()
			}
			benchKernels(b, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(p, src)
					geluRow(p)
				}
			})
		})
	}
}

// BenchmarkScoreRow times one query row's scores against a visible key
// range at the repro head width (16): keys in a packed [K|V] block (stride
// 128) or a packed QKV block (stride 192), over a metadata span (30 keys)
// and a column span (54).
func BenchmarkScoreRow(b *testing.B) {
	for _, stride := range []int{128, 192} {
		for _, n := range []int{30, 54} {
			b.Run(fmt.Sprintf("stride%d/keys%d", stride, n), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				q, kvp := benchTensor(rng, 1, 16).Data, benchTensor(rng, n, stride).Data
				srow := make([]float64, n)
				benchKernels(b, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						benchSink = scoreRow(srow, q, kvp, 64, stride, 0, n, 16, 0.25, math.Inf(-1))
					}
				})
			})
		}
	}
}

// BenchmarkMatMul measures the sharded kernel across sizes and worker
// counts; the par1/parN pairs quantify the parallel speedup (or, on a
// single-core box, the sharding overhead).
func BenchmarkMatMul(b *testing.B) {
	for _, size := range []int{128, 256} {
		for _, par := range []int{1, 4} {
			b.Run(fmt.Sprintf("size%d/par%d", size, par), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				x := benchTensor(rng, size, size)
				y := benchTensor(rng, size, size)
				old := Parallelism()
				SetParallelism(par)
				defer SetParallelism(old)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					out := MatMul(x, y)
					ReleaseGraph(out)
				}
			})
		}
	}
}

// BenchmarkTrainStepRelease runs a full forward/backward/step cycle with the
// graph released into the arena each iteration versus left to the GC; the
// allocs/op delta is the arena's win.
func BenchmarkTrainStepRelease(b *testing.B) {
	for _, arena := range []bool{true, false} {
		name := "arena"
		if !arena {
			name = "gc"
		}
		b.Run(name, func(b *testing.B) {
			SetArena(arena)
			defer SetArena(true)
			rng := rand.New(rand.NewSource(1))
			w1 := Param(64, 64)
			w2 := Param(64, 64)
			XavierUniform(w1, rng)
			XavierUniform(w2, rng)
			x := benchTensor(rng, 32, 64)
			opt := NewSGD([]*Tensor{w1, w2}, 0.01, 0.9)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opt.ZeroGrads()
				loss := Sum(GELU(MatMul(GELU(MatMul(x, w1)), w2)))
				loss.Backward()
				opt.Step()
				if arena {
					ReleaseGraph(loss)
				}
			}
		})
	}
}

func BenchmarkAdamStep(b *testing.B) {
	for _, par := range []int{1, 4} {
		b.Run(fmt.Sprintf("par%d", par), func(b *testing.B) {
			defer SetParallelism(DefaultParallelism())
			SetParallelism(par)
			rng := rand.New(rand.NewSource(1))
			params := []*Tensor{Param(3000, 64), Param(64, 3000), Param(256, 64), Param(1, 64)}
			elems := 0
			for _, p := range params {
				XavierUniform(p, rng)
				p.ensureGrad()
				for i := range p.Grad {
					p.Grad[i] = rng.NormFloat64() * 0.01
				}
				elems += len(p.Data)
			}
			opt := NewAdam(params, 1e-3)
			opt.ClipNorm = 1
			b.SetBytes(int64(elems * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opt.Step()
			}
		})
	}
}

package tensor

import (
	"math/rand"
	"testing"
)

// The int8 kernels on the shapes the serving path actually runs (128-token
// self-attention at the repro scale); their fp64 counterparts are
// BenchmarkFusedAttentionCore128 and BenchmarkLinearInto/128x64x192 in
// bench_test.go, and the end-to-end ratios live in the nn and adtd
// benchmarks.

func attnBenchSetup(rng *rand.Rand) (ws *Workspace, qp []float64, sh AttnShape, dst []float64) {
	h := 64
	sh = AttnShape{Lq: 128, Lkv: 128, Heads: 4, HeadDim: 16, QOff: 0, QStride: 3 * h, KOff: h, VOff: 2 * h, KVStride: 3 * h, Scale: 0.25}
	qp = make([]float64, 128*3*h)
	for i := range qp {
		qp[i] = rng.NormFloat64()
	}
	dst = make([]float64, 128*h)
	ws = NewWorkspace()
	return
}

func BenchmarkQuantAttentionCore128(b *testing.B) {
	ws, qp, sh, dst := attnBenchSetup(rand.New(rand.NewSource(1)))
	if !QuantizeAvailable() {
		b.Skip("no SIMD int8 kernels on this machine")
	}
	if !QuantAttentionCore(ws, dst, qp, qp, sh, nil) {
		b.Fatal("shape refused by the quantized core")
	}
	ws.Reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		QuantAttentionCore(ws, dst, qp, qp, sh, nil)
		ws.Reset()
	}
}

func linearBenchSetup(rng *rand.Rand) (x, w, bias, dst []float64) {
	x = make([]float64, 128*64)
	w = make([]float64, 64*192)
	bias = make([]float64, 192)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	dst = make([]float64, 128*192)
	return
}

func BenchmarkLinearQuantInto128x64x192(b *testing.B) {
	x, w, bias, dst := linearBenchSetup(rand.New(rand.NewSource(1)))
	if !QuantizeAvailable() {
		b.Skip("no SIMD int8 kernels on this machine")
	}
	qm := PackQuantMatrix(w, 64, 192)
	ws := NewWorkspace()
	LinearQuantInto(ws, dst, x, 128, 64, qm, 0, 192, bias)
	ws.Reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LinearQuantInto(ws, dst, x, 128, 64, qm, 0, 192, bias)
		ws.Reset()
	}
}

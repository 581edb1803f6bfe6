package nn

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// evalMode freezes a module's parameters, the serve-time configuration
// (Model.SetEval) under which the NoGrad fast path is selected; the
// inference benchmarks below measure that path.
func evalMode(m Module) {
	for _, p := range m.Params() {
		p.SetRequiresGrad(false)
	}
}

func BenchmarkSelfAttention128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := NewMultiHeadAttention(64, 4, rng)
	evalMode(a)
	x := tensor.New(128, 64)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Forward(x, x, nil)
	}
}

func BenchmarkCrossAttention(b *testing.B) {
	// Content-tower shape: 64 queries over 192 keys/values.
	rng := rand.New(rand.NewSource(1))
	a := NewMultiHeadAttention(64, 4, rng)
	evalMode(a)
	q := tensor.New(64, 64)
	kv := tensor.New(192, 64)
	for i := range q.Data {
		q.Data[i] = rng.NormFloat64()
	}
	for i := range kv.Data {
		kv.Data[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Forward(q, kv, nil)
	}
}

func BenchmarkTransformerBlock(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	blk := NewTransformerBlock(64, 4, 128, rng)
	evalMode(blk)
	x := tensor.New(128, 64)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk.SelfForward(x, nil)
	}
}

func BenchmarkMLPClassifier(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c := NewMLPClassifier(64+22, 64, 62, rng)
	evalMode(c)
	x := tensor.New(20, 64+22)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Forward(x)
	}
}

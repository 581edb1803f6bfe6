package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// composedAttention is the reference the fused core promises to match bit
// for bit: per head SliceCols+MatMulNT+Scale+SoftmaxRows+MatMul, then
// ConcatCols, under the dense mask spans stand for. It also returns the
// per-head softmax weights so tests can see which cases they exercised.
func composedAttention(proj []float64, sh AttnShape, spans []AttnSpan) (*Tensor, []*Tensor) {
	hd := sh.Heads * sh.HeadDim
	q, k, v := New(sh.Lq, hd), New(sh.Lkv, hd), New(sh.Lkv, hd)
	for i := 0; i < sh.Lq; i++ {
		copy(q.Row(i), proj[i*sh.QStride+sh.QOff:i*sh.QStride+sh.QOff+hd])
	}
	for j := 0; j < sh.Lkv; j++ {
		copy(k.Row(j), proj[j*sh.KVStride+sh.KOff:j*sh.KVStride+sh.KOff+hd])
		copy(v.Row(j), proj[j*sh.KVStride+sh.VOff:j*sh.KVStride+sh.VOff+hd])
	}
	mask := DenseMask(spans, sh.Lq, sh.Lkv)
	heads := make([]*Tensor, sh.Heads)
	weights := make([]*Tensor, sh.Heads)
	for h := range heads {
		from, to := h*sh.HeadDim, (h+1)*sh.HeadDim
		scores := Scale(MatMulNT(SliceCols(q, from, to), SliceCols(k, from, to)), sh.Scale)
		weights[h] = SoftmaxRows(scores, mask)
		heads[h] = MatMul(weights[h], SliceCols(v, from, to))
	}
	return ConcatCols(heads...), weights
}

// randSpans tiles [0, lq) with random row groups, each seeing two random
// (possibly empty, possibly adjacent) ascending key ranges.
func randSpans(rng *rand.Rand, lq, lkv int) []AttnSpan {
	var spans []AttnSpan
	for lo := 0; lo < lq; {
		hi := lo + 1 + rng.Intn(5)
		if hi > lq {
			hi = lq
		}
		cut := [4]int{rng.Intn(lkv + 1), rng.Intn(lkv + 1), rng.Intn(lkv + 1), rng.Intn(lkv + 1)}
		for i := 1; i < 4; i++ { // insertion sort: ascending ⇒ A before B
			for j := i; j > 0 && cut[j] < cut[j-1]; j-- {
				cut[j], cut[j-1] = cut[j-1], cut[j]
			}
		}
		spans = append(spans, AttnSpan{RowLo: lo, RowHi: hi, A: [2]int{cut[0], cut[1]}, B: [2]int{cut[2], cut[3]}})
		lo = hi
	}
	return spans
}

func requireBitEqual(t *testing.T, name string, got []float64, want *Tensor) {
	t.Helper()
	for i, w := range want.Data {
		if got[i] != w && !(math.IsNaN(got[i]) && math.IsNaN(w)) {
			t.Fatalf("%s: element %d: fused %v != composed %v", name, i, got[i], w)
		}
	}
}

// The span-walking core must reproduce the dense-mask composed ops bit for
// bit: random span structures at the specialized (16) and generic (12) head
// widths and the paper's (26, a remainder of 2), rows that see nothing, and
// weights that underflow to exact zeros inside a visible range. Both sides
// run on the selected kernels, so the pair holds on the assembly and on Go.
func TestFusedAttentionCoreSpansBitExact(t *testing.T) {
	eachKernel(t, testFusedAttentionCoreSpansBitExact)
}

func testFusedAttentionCoreSpansBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ws := NewWorkspace()
	for _, tc := range []struct {
		name                    string
		lq, lkv, heads, headDim int
		spans                   func() []AttnSpan
	}{
		{"all-visible", 33, 33, 4, 16, func() []AttnSpan { return nil }},
		{"block-16", 40, 104, 4, 16, func() []AttnSpan { return blockSpans(40, 104, 24, 8) }},
		{"random-16", 57, 91, 4, 16, func() []AttnSpan { return randSpans(rng, 57, 91) }},
		{"random-12", 23, 45, 3, 12, func() []AttnSpan { return randSpans(rng, 23, 45) }},
		{"random-26", 19, 37, 2, 26, func() []AttnSpan { return randSpans(rng, 19, 37) }},
	} {
		for round := 0; round < 4; round++ {
			proj, sh := buildAttnInputs(rng, tc.lq, tc.lkv, tc.heads, tc.headDim)
			spans := tc.spans()
			want, _ := composedAttention(proj, sh, spans)
			got := make([]float64, tc.lq*tc.heads*tc.headDim)
			for i := range got {
				got[i] = math.NaN() // must be overwritten
			}
			FusedAttentionCore(ws, got, proj, proj, sh, spans)
			ws.Reset()
			requireBitEqual(t, tc.name, got, want)
		}
	}
}

func TestFusedAttentionCoreEmptySpanAndUnderflow(t *testing.T) {
	eachKernel(t, testFusedAttentionCoreEmptySpanAndUnderflow)
}

func testFusedAttentionCoreEmptySpanAndUnderflow(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	ws := NewWorkspace()
	proj, sh := buildAttnInputs(rng, 6, 20, 2, 16)
	h := sh.Heads * sh.HeadDim
	// Rows 2–3 see nothing; the others see two ranges. Blowing up the query
	// rows spreads the scores over thousands of units, so most visible
	// weights underflow to exactly 0 and the AV product must skip them the
	// way the composed MatMul does.
	spans := []AttnSpan{
		{RowLo: 0, RowHi: 2, A: [2]int{1, 6}, B: [2]int{9, 17}},
		{RowLo: 2, RowHi: 4, A: [2]int{5, 5}, B: [2]int{20, 20}},
		{RowLo: 4, RowHi: 6, A: [2]int{0, 3}, B: [2]int{3, 20}},
	}
	for i := 0; i < sh.Lq; i++ {
		for c := 0; c < h; c++ {
			proj[i*sh.QStride+sh.QOff+c] *= 1e3
		}
	}
	want, weights := composedAttention(proj, sh, spans)
	underflowed := 0
	for _, w := range weights {
		for _, j := range []int{1, 2, 3, 4, 5, 9, 10, 11, 12, 13, 14, 15, 16} {
			if w.At(0, j) == 0 {
				underflowed++
			}
		}
	}
	if underflowed == 0 {
		t.Fatal("no visible weight underflowed to zero: the case is not exercised")
	}
	got := make([]float64, sh.Lq*h)
	for i := range got {
		got[i] = math.NaN()
	}
	FusedAttentionCore(ws, got, proj, proj, sh, spans)
	requireBitEqual(t, "underflow", got, want)
	for c := 2 * h; c < 4*h; c++ {
		if got[c] != 0 {
			t.Fatalf("row that sees nothing: output[%d] = %g, want 0", c, got[c])
		}
	}
}

func TestDenseMask(t *testing.T) {
	if DenseMask(nil, 3, 5) != nil {
		t.Fatal("nil spans hide nothing: want a nil mask")
	}
	if DenseMask([]AttnSpan{{RowLo: 0, RowHi: 3, A: [2]int{0, 2}, B: [2]int{2, 5}}}, 3, 5) != nil {
		t.Fatal("spans that show every key: want a nil mask")
	}
	m := DenseMask([]AttnSpan{
		{RowLo: 0, RowHi: 1, A: [2]int{0, 1}, B: [2]int{3, 4}},
		{RowLo: 1, RowHi: 2},
	}, 2, 4)
	inf := math.Inf(-1)
	want := []float64{0, inf, inf, 0, inf, inf, inf, inf}
	for i, w := range want {
		if m.Data[i] != w {
			t.Fatalf("mask = %v, want %v", m.Data, want)
		}
	}
}

// Spans that do not tile the query rows, or overlap, are caller bugs the
// kernels refuse instead of reading unwritten scratch.
func TestAttnSpansValidated(t *testing.T) {
	for name, spans := range map[string][]AttnSpan{
		"gap":       {{RowLo: 0, RowHi: 1, A: [2]int{0, 4}, B: [2]int{4, 4}}, {RowLo: 2, RowHi: 3}},
		"short":     {{RowLo: 0, RowHi: 2, A: [2]int{0, 4}, B: [2]int{4, 4}}},
		"overlap":   {{RowLo: 0, RowHi: 3, A: [2]int{0, 3}, B: [2]int{2, 4}}},
		"past-keys": {{RowLo: 0, RowHi: 3, A: [2]int{0, 2}, B: [2]int{3, 5}}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: malformed spans accepted", name)
				}
			}()
			DenseMask(spans, 3, 4)
		}()
	}
}

// buildAttnInputs makes a random packed self-attention projection and shape.
func buildAttnInputs(rng *rand.Rand, lq, lkv, heads, headDim int) ([]float64, AttnShape) {
	h := heads * headDim
	proj := make([]float64, lkv*3*h)
	for i := range proj {
		proj[i] = rng.NormFloat64()
	}
	sh := AttnShape{
		Lq: lq, Lkv: lkv, Heads: heads, HeadDim: headDim,
		QOff: 0, QStride: 3 * h, KOff: h, VOff: 2 * h, KVStride: 3 * h,
		Scale: 1 / math.Sqrt(float64(headDim)),
	}
	return proj, sh
}

// blockSpans builds the batched Phase-2 span structure: row i may attend
// to [0, meta) and to its own block of width span.
func blockSpans(lq, lkv, meta, span int) []AttnSpan {
	var spans []AttnSpan
	for lo := 0; lo < lq; lo += span {
		hi, blk := lo+span, meta+lo
		if hi > lq {
			hi = lq
		}
		bhi := blk + span
		if bhi > lkv {
			bhi = lkv
		}
		spans = append(spans, AttnSpan{RowLo: lo, RowHi: hi, A: [2]int{0, meta}, B: [2]int{blk, bhi}})
	}
	return spans
}

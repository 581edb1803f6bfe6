package tensor

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// composedAttention is the reference the fused core promises to match bit
// for bit: per head SliceCols+MatMulNT+Scale+SoftmaxRows+MatMul, then
// ConcatCols, under the dense mask spans stand for. It also returns the
// per-head softmax weights so tests can see which cases they exercised.
func composedAttention(qp, kvp []float64, sh AttnShape, spans []AttnSpan) (*Tensor, []*Tensor) {
	hd := sh.Heads * sh.HeadDim
	q, k, v := New(sh.Lq, hd), New(sh.Lkv, hd), New(sh.Lkv, hd)
	for i := 0; i < sh.Lq; i++ {
		copy(q.Row(i), qp[i*sh.QStride+sh.QOff:i*sh.QStride+sh.QOff+hd])
	}
	for j := 0; j < sh.Lkv; j++ {
		copy(k.Row(j), kvp[j*sh.KVStride+sh.KOff:j*sh.KVStride+sh.KOff+hd])
		copy(v.Row(j), kvp[j*sh.KVStride+sh.VOff:j*sh.KVStride+sh.VOff+hd])
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

// randSpans tiles [0, lq) with random groups of 1 to maxRows rows, each
// seeing two random (possibly empty, possibly adjacent) ascending key ranges.
func randSpans(rng *rand.Rand, lq, lkv, maxRows int) []AttnSpan {
	var spans []AttnSpan
	for lo := 0; lo < lq; {
		hi := min(lo+1+rng.Intn(maxRows), lq)
		a, b := randKeyRanges(rng, lkv)
		spans = append(spans, AttnSpan{RowLo: lo, RowHi: hi, A: a, B: b})
		lo = hi
	}
	return spans
}

// randKeyRanges returns two random ascending, disjoint, possibly empty or
// adjacent key ranges inside [0, lkv).
func randKeyRanges(rng *rand.Rand, lkv int) (a, b [2]int) {
	cut := [4]int{rng.Intn(lkv + 1), rng.Intn(lkv + 1), rng.Intn(lkv + 1), rng.Intn(lkv + 1)}
	slices.Sort(cut[:])
	return [2]int{cut[0], cut[1]}, [2]int{cut[2], cut[3]}
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
		{"random-16", 57, 91, 4, 16, func() []AttnSpan { return randSpans(rng, 57, 91, 5) }},
		{"random-12", 23, 45, 3, 12, func() []AttnSpan { return randSpans(rng, 23, 45, 5) }},
		{"random-26", 19, 37, 2, 26, func() []AttnSpan { return randSpans(rng, 19, 37, 5) }},
	} {
		for round := 0; round < 4; round++ {
			proj, sh := buildAttnInputs(rng, tc.lq, tc.lkv, tc.heads, tc.headDim)
			spans := tc.spans()
			want, _ := composedAttention(proj, proj, sh, spans)
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
	want, weights := composedAttention(proj, proj, sh, spans)
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

// attnBufs holds FusedAttentionCore's operands in the content layer's
// layout — query rows Heads·HeadDim wide, and [K|V] rows — and its output,
// each ending at a guard page: a kernel that reads past the last query row
// or the last key's V row, or writes past the last output row, faults
// instead of passing.
type attnBufs struct{ q, kv, dst *guardBuf }

const maxAttnRows, maxAttnWidth = 160, 4 * 26

func newAttnBufs(t testing.TB) attnBufs {
	return attnBufs{
		q:   newGuardBuf(t, maxAttnRows*maxAttnWidth),
		kv:  newGuardBuf(t, maxAttnRows*2*maxAttnWidth),
		dst: newGuardBuf(t, maxAttnRows*maxAttnWidth),
	}
}

// operands returns the query and [K|V] blocks of an lq×lkv attention with
// heads of headDim, each ending at its guard page, for the caller to fill,
// and the shape that reads them.
func (b attnBufs) operands(lq, lkv, heads, headDim int) (qp, kvp []float64, sh AttnShape) {
	h := heads * headDim
	sh = AttnShape{
		Lq: lq, Lkv: lkv, Heads: heads, HeadDim: headDim,
		QStride: h, VOff: h, KVStride: 2 * h, Scale: 1 / math.Sqrt(float64(headDim)),
	}
	return b.q.tail(lq * h), b.kv.tail(lkv * 2 * h), sh
}

// composedBySpan runs composedAttention span by span, unmasked, on the keys
// each span sees (a span that sees none is zeros). Where every hidden key
// scores finite or −Inf it is composedAttention under the dense mask; where
// one scores NaN or +Inf, adding the mask's −Inf makes the masked row NaN,
// while the span contract — and this reference — never read that key.
func composedBySpan(qp, kvp []float64, sh AttnShape, spans []AttnSpan) []float64 {
	w := sh.Heads * sh.HeadDim
	out := make([]float64, sh.Lq*w)
	var all [1]AttnSpan
	for _, sp := range spansOrAll(spans, &all, sh.Lq, sh.Lkv) {
		var kv []float64
		for _, kr := range [2][2]int{sp.A, sp.B} {
			kv = append(kv, kvp[kr[0]*sh.KVStride:kr[1]*sh.KVStride]...)
		}
		sub := sh
		sub.Lq, sub.Lkv = sp.RowHi-sp.RowLo, len(kv)/sh.KVStride
		if sub.Lq == 0 || sub.Lkv == 0 {
			continue
		}
		got, _ := composedAttention(qp[sp.RowLo*sh.QStride:], kv, sub, nil)
		copy(out[sp.RowLo*w:], got.Data)
	}
	return out
}

// checkAttention runs FusedAttentionCore on the selected kernels into an
// output that ends at its guard page and starts as NaN, and requires
// composedBySpan's bits in every element.
func checkAttention(t testing.TB, b attnBufs, ws *Workspace, qp, kvp []float64, sh AttnShape, spans []AttnSpan) {
	t.Helper()
	want := composedBySpan(qp, kvp, sh, spans)
	w := sh.Heads * sh.HeadDim
	got := b.dst.tail(sh.Lq * w)
	for i := range got {
		got[i] = math.NaN()
	}
	FusedAttentionCore(ws, got, qp, kvp, sh, spans)
	ws.Reset()
	if i := firstBitDiff(got, want); i >= 0 {
		t.Fatalf("%d×%d, %d heads of %d, spans %v on %s: output[%d] (row %d, col %d) = %v (%#x), composed %v (%#x)",
			sh.Lq, sh.Lkv, sh.Heads, sh.HeadDim, spans, Kernels(), i, i/w, i%w,
			got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
	}
}

// The block kernels (AVX-512, head width 16) run eight query rows of a span
// per vector, one row per lane. These cases put the per-lane rules side by
// side in one block, on every kernel choice, against the composed ops, with
// every operand at a guard page: each span length 1–17 (every count of tail
// lanes) alone and all seventeen tiled in one call; a NaN query row and a row
// of −Inf scores (max −Inf: zeros) beside live rows; a row whose every weight
// but its max's underflows; a weight that underflowed to zero against an
// Inf and a NaN value in one lane, and a live weight against them in the
// next (the zero-skip); zero scores of both signs in the max fold; and a
// score a fused multiply-add would change.
func TestFusedAttentionCoreLaneEdges(t *testing.T) {
	a, x, y := fmaTriple(t)
	eachKernel(t, func(t *testing.T) {
		b := newAttnBufs(t)
		ws := NewWorkspace()
		rng := rand.New(rand.NewSource(41))
		const heads, hd, lkv = 2, 16, 23
		const w = heads * hd

		var tiled []AttnSpan
		for n, lo := 1, 0; n <= 17; n, lo = n+1, lo+n {
			qp, kvp, sh := b.operands(n, lkv, heads, hd)
			fillKernelInput(rng, qp, 0)
			fillKernelInput(rng, kvp, 0)
			checkAttention(t, b, ws, qp, kvp, sh, []AttnSpan{{RowLo: 0, RowHi: n, A: [2]int{0, 7}, B: [2]int{12, lkv}}})
			checkAttention(t, b, ws, qp, kvp, sh, nil)
			ka, kb := randKeyRanges(rng, lkv)
			tiled = append(tiled, AttnSpan{RowLo: lo, RowHi: lo + n, A: ka, B: kb})
		}
		tiled[len(tiled)-1].B[1] = lkv
		qp, kvp, sh := b.operands(tiled[len(tiled)-1].RowHi, lkv, heads, hd)
		fillKernelInput(rng, qp, 0)
		fillKernelInput(rng, kvp, 30)
		checkAttention(t, b, ws, qp, kvp, sh, tiled)

		// One 11-row span: a full block and three tail lanes.
		const lq = 11
		spans := []AttnSpan{{RowLo: 0, RowHi: lq, A: [2]int{0, 9}, B: [2]int{14, lkv}}}
		qp, kvp, sh = b.operands(lq, lkv, heads, hd)
		fillKernelInput(rng, qp, 0)
		fillKernelInput(rng, kvp, 0)
		qrow := func(i, h int) []float64 { return qp[i*w+h*hd : i*w+(h+1)*hd] }
		for h := 0; h < heads; h++ {
			qrow(1, h)[3] = math.NaN() // every score NaN
			for j := 0; j < lkv; j++ {
				kvp[j*2*w+h*hd] = 0.5 + math.Abs(kvp[j*2*w+h*hd])
			}
			clear(qrow(6, h))
			qrow(6, h)[0] = math.Inf(-1) // every score −Inf
			for d, v := range qrow(2, h) {
				qrow(2, h)[d] = 1e4 * v // scores thousands apart
			}
			// Row 3 scores key 0 at +2500 and key 5 at −2500, so key 5's
			// weight underflows; row 4's scores are all near zero.
			clear(qrow(3, h))
			qrow(3, h)[1] = 1e4
			kvp[0*2*w+h*hd+1], kvp[5*2*w+h*hd+1] = 1, -1
			for d := range qrow(4, h) {
				qrow(4, h)[d] *= 1e-3
			}
			v5 := kvp[5*2*w+w+h*hd:]
			v5[2], v5[9] = math.Inf(1), math.NaN()
		}
		want, weights := composedAttention(qp, kvp, sh, spans)
		for h := 0; h < heads; h++ {
			if weights[h].At(3, 5) != 0 || weights[h].At(4, 5) == 0 {
				t.Fatalf("head %d: key 5 weights %g (row 3) and %g (row 4): the zero-skip case is not set up", h, weights[h].At(3, 5), weights[h].At(4, 5))
			}
			if !math.IsInf(want.At(4, h*hd+2), 1) || math.IsInf(want.At(3, h*hd+2), 0) || want.At(1, h*hd) != 0 || want.At(6, h*hd) != 0 {
				t.Fatalf("head %d: rows 1, 3, 4, 6 = %v, %v, %v, %v: the lane cases are not set up", h,
					want.Row(1)[h*hd:h*hd+3], want.Row(3)[h*hd:h*hd+3], want.Row(4)[h*hd:h*hd+3], want.Row(6)[h*hd:h*hd+3])
			}
		}
		underflowed := 0
		for j := 0; j < lkv; j++ {
			if weights[0].At(2, j) == 0 {
				underflowed++
			}
		}
		if underflowed != lkv-1 { // 5 hidden, 17 of the 18 visible underflowed
			t.Fatalf("row 2: %d of %d weights are zero, want all but its max's", underflowed, lkv)
		}
		checkAttention(t, b, ws, qp, kvp, sh, spans)

		// Zero scores of both signs: a key of ±2⁻¹⁰⁰⁰ scores ±2⁻¹⁰⁸⁰ times the
		// row's ±1 query, which rounds to a signed zero, and a key of −1
		// scores ∓2⁻⁸⁰. A row with a +1 query has a zero max, and which zero
		// the fold keeps depends on the order of its keys.
		qp, kvp, sh = b.operands(lq, lkv, heads, hd)
		sh.Scale = 0x1p-80
		clear(kvp)
		for j := 0; j < lkv; j++ {
			kvp[j*2*w] = []float64{-1, 0x1p-1000, -0x1p-1000}[rng.Intn(3)]
			fillKernelInput(rng, kvp[j*2*w+w:(j+1)*2*w], 0)
		}
		clear(qp)
		for i := 0; i < lq; i++ {
			qp[i*w] = []float64{1, -1}[rng.Intn(2)]
		}
		checkAttention(t, b, ws, qp, kvp, sh, spans)

		// Key 0 scores 1 (its y + a·x fused is 2⁻⁶⁰, times 2⁶⁰), every
		// other key 0; rounding the product first would score key 0 at 0 too.
		qp, kvp, sh = b.operands(lq, lkv, heads, hd)
		sh.Scale = 0x1p60
		clear(qp)
		clear(kvp)
		for i := 0; i < lq; i++ {
			qp[i*w], qp[i*w+4] = 1, a
		}
		kvp[0], kvp[4] = y, x
		for j := 0; j < lkv; j++ {
			fillKernelInput(rng, kvp[j*2*w+w:(j+1)*2*w], 0)
		}
		if _, weights = composedAttention(qp, kvp, sh, spans); weights[0].At(0, 0) <= weights[0].At(0, 1) {
			t.Fatalf("composed weights %g (key 0) and %g (key 1): key 0's score was not fused", weights[0].At(0, 0), weights[0].At(0, 1))
		}
		checkAttention(t, b, ws, qp, kvp, sh, spans)
	})
}

// breakSpans breaks one rule of AttnSpan in one span of spans (a list of at
// least one span tiling [0, lq) over lkv keys), the rule picked by kind mod 7.
func breakSpans(rng *rand.Rand, spans []AttnSpan, kind, lkv int) {
	sp := &spans[rng.Intn(len(spans))]
	d := 1 + rng.Intn(3)
	switch kind % 7 {
	case 0: // a row skipped or seen twice
		sp.RowLo += d
	case 1: // rows past lq
		spans[len(spans)-1].RowHi += d
	case 2: // rows backwards
		sp.RowHi = sp.RowLo - d
	case 3: // a key before 0
		sp.A[0] = -d
	case 4: // A overlaps B
		sp.A[1] = sp.B[0] + d
	case 5: // B backwards
		sp.B[0] = sp.B[1] + d
	case 6: // a key past lkv
		sp.B[1] = lkv + d
	}
}

// FuzzAttnCore runs FusedAttentionCore on random shapes, head widths
// (16, the block kernels' width, and others), span lists and inputs (normal,
// sprinkled with specials, or raw bit patterns), on every kernel. A
// well-formed span list must give the composed ops' bits; a list with one
// rule broken must panic in checkSpans before anything is written (and so
// before any key memory is read).
func FuzzAttnCore(f *testing.F) {
	f.Add(int64(1), uint8(30), uint8(30), uint8(3), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint8(107), uint8(137), uint8(3), uint8(0), uint8(1), uint8(1))
	f.Add(int64(3), uint8(17), uint8(9), uint8(1), uint8(1), uint8(1), uint8(2))
	f.Add(int64(4), uint8(40), uint8(33), uint8(0), uint8(3), uint8(1), uint8(1))
	f.Add(int64(5), uint8(12), uint8(20), uint8(2), uint8(0), uint8(2), uint8(0))
	f.Add(int64(6), uint8(8), uint8(5), uint8(1), uint8(0), uint8(5), uint8(2))
	f.Add(int64(7), uint8(25), uint8(60), uint8(3), uint8(5), uint8(8), uint8(0))
	b := newAttnBufs(f)
	ws := NewWorkspace()
	f.Fuzz(func(t *testing.T, seed int64, lq, lkv, heads, hd, spanMode, fill uint8) {
		rng := rand.New(rand.NewSource(seed))
		qp, kvp, sh := b.operands(1+int(lq)%maxAttnRows, 1+int(lkv)%maxAttnRows, 1+int(heads)%4,
			[]int{16, 16, 16, 26, 12, 5}[hd%6])
		for _, s := range [][]float64{qp, kvp} {
			switch fill % 3 {
			case 0:
				fillKernelInput(rng, s, 0)
			case 1:
				fillKernelInput(rng, s, 3)
			case 2:
				for i := range s {
					s[i] = math.Float64frombits(rng.Uint64())
				}
			}
		}
		var spans []AttnSpan // spanMode 0: every row sees every key
		if spanMode > 0 {
			spans = randSpans(rng, sh.Lq, sh.Lkv, 1+rng.Intn(20))
		}
		malformed := spanMode > 1
		if malformed {
			breakSpans(rng, spans, int(spanMode)-2, sh.Lkv)
		}
		for _, kc := range kernelChoices {
			if kc.missing() != "" {
				continue
			}
			kc.with(t, func() {
				if !malformed {
					checkAttention(t, b, ws, qp, kvp, sh, spans)
					return
				}
				dst := b.dst.tail(sh.Lq * sh.Heads * sh.HeadDim)
				clear(dst)
				func() {
					defer func() {
						msg, _ := recover().(string)
						if !strings.HasPrefix(msg, "tensor: bad attention span") && !strings.HasPrefix(msg, "tensor: attention spans cover") {
							t.Fatalf("spans %v over %d×%d on %s: panic %q, want checkSpans's", spans, sh.Lq, sh.Lkv, kc.name, msg)
						}
					}()
					FusedAttentionCore(ws, dst, qp, kvp, sh, spans)
				}()
				ws.Reset()
				if slices.ContainsFunc(dst, func(v float64) bool { return math.Float64bits(v) != 0 }) {
					t.Fatalf("spans %v on %s: output written before the spans were rejected", spans, kc.name)
				}
			})
		}
	})
}

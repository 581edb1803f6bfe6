package adtd

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/metafeat"
	"repro/internal/tensor"
)

// randChunk builds a synthetic table chunk with the given number of columns,
// each holding a different number of cells (possibly none) of different
// lengths, so the columns' content spans are uneven.
func randChunk(rng *rand.Rand, name string, columns int) *metafeat.TableInfo {
	words := []string{"alice", "bob", "2024-01-05", "42", "paris", "x", "hello world", "3.14159", "N/A", "carol@example.com"}
	info := &metafeat.TableInfo{Name: name}
	for c := 0; c < columns; c++ {
		col := &metafeat.ColumnInfo{Name: fmt.Sprintf("%s_c%d", name, c), DataType: "VARCHAR"}
		for v := rng.Intn(6); v > 0; v-- {
			col.Values = append(col.Values, strings.Repeat(words[rng.Intn(len(words))]+" ", 1+rng.Intn(3)))
		}
		info.Columns = append(info.Columns, col)
	}
	return info
}

// randBatch builds b content requests over random chunks of 1–6 columns
// (the first always single-column), each classifying a random non-empty
// subset of its columns. Encodings are detached copies, so the batch calls
// do not consume them.
func randBatch(rng *rand.Rand, m *Model, b int) []ContentRequest {
	reqs := make([]ContentRequest, b)
	for r := range reqs {
		columns := 1 + rng.Intn(6)
		if r == 0 {
			columns = 1
		}
		info := randChunk(rng, fmt.Sprintf("t%d", r), columns)
		var cols []int
		for c := 0; c < columns; c++ {
			if rng.Intn(3) > 0 {
				cols = append(cols, c)
			}
		}
		if len(cols) == 0 {
			cols = []int{columns - 1}
		}
		menc := m.EncodeMetadata(m.Encoder().BuildMetaInput(info, false))
		reqs[r] = ContentRequest{Menc: menc.CloneDetach(), Table: info, Cols: cols}
		menc.Release()
	}
	return reqs
}

// TestContentSpansFastMatchesDenseMask is the span design's property test:
// for random batch sizes, column counts and uneven column lengths, in both
// attention regimes, the fast path (key spans, no mask) must equal the
// per-request training forward (the dense mask those spans stand for) bit
// for bit.
func TestContentSpansFastMatchesDenseMask(t *testing.T) {
	const cells = 5
	for _, symmetric := range []bool{false, true} {
		m, _ := tinyModel(t)
		m.Cfg.SymmetricContent = symmetric
		rng := rand.New(rand.NewSource(41))
		for trial := 0; trial < 12; trial++ {
			reqs := randBatch(rng, m, 1+rng.Intn(8))
			fast := m.PredictContentBatch(reqs, cells)
			for r, req := range reqs {
				what := fmt.Sprintf("symmetric=%v trial %d (B=%d) req %d", symmetric, trial, len(reqs), r)
				sameProbs(t, what, fast[r], composedContent(m, req, cells))
			}
		}
	}
}

// keysVisited is the attention work a span list stands for, per head: every
// query row visits exactly the keys of its two ranges.
func keysVisited(spans []tensor.AttnSpan) int {
	n := 0
	for _, sp := range spans {
		n += (sp.RowHi - sp.RowLo) * ((sp.A[1] - sp.A[0]) + (sp.B[1] - sp.B[0]))
	}
	return n
}

// TestBatchedContentCostIsLinear guards the point of the span design without
// a clock: merging chunks into one forward must add no attention work and
// no scratch beyond what the chunks cost alone. With a dense mask both grew
// with the square of the merged length.
func TestBatchedContentCostIsLinear(t *testing.T) {
	const cells = 5
	m, _ := tinyModel(t)
	rng := rand.New(rand.NewSource(43))
	reqs := randBatch(rng, m, 8)

	var mencs []*MetaEncoding
	var cins []*ContentInput
	alone := 0
	for _, req := range reqs {
		cin := m.Encoder().BuildContentInput(req.Table, req.Cols, cells)
		spans, _ := contentSpans([]*MetaEncoding{req.Menc}, []*ContentInput{cin})
		alone += keysVisited(spans)
		mencs, cins = append(mencs, req.Menc), append(cins, cin)
	}
	merged, lkv := contentSpans(mencs, cins)
	if got := keysVisited(merged); got != alone {
		t.Fatalf("B=8 batch visits %d keys, its chunks alone visit %d", got, alone)
	}
	lq := 0
	for _, cin := range cins {
		lq += cin.Len()
	}
	if dense := lq * lkv; alone*4 > dense {
		t.Fatalf("fixture too small to tell: %d visible of %d dense score positions", alone, dense)
	}

	// Scratch: what a forward allocates when it starts cold. Two collections
	// empty the workspace and arena pools (sync.Pool drops its contents on
	// the second), so everything the forward needs — workspace scratch
	// included — is allocated afresh and counted by the runtime. Eight copies
	// of one chunk make every row-proportional buffer exactly 8× the single
	// forward's, so anything well past 8× is a buffer growing with the
	// square of the batch (the dense mask alone was lq×lkv float64s — 64× a
	// single chunk's).
	wide := randChunk(rng, "wide", 6)
	menc := m.EncodeMetadata(m.Encoder().BuildMetaInput(wide, false)).CloneDetach()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	coldBytes := func(b int) uint64 {
		batch := make([]ContentRequest, b)
		for i := range batch {
			batch[i] = ContentRequest{Menc: menc, Table: wide, Cols: []int{0, 1, 2, 3, 4, 5}}
		}
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m.PredictContentBatch(batch, cells)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	one, eight := coldBytes(1), coldBytes(8)
	if eight > 8*one*5/4 {
		t.Fatalf("a cold B=8 forward allocates %d bytes, B=1 allocates %d: %.1fx, want ≈ 8x", eight, one, float64(eight)/float64(one))
	}
	t.Logf("cold forward: B=1 %d bytes, B=8 %d bytes (%.2fx)", one, eight, float64(eight)/float64(one))
}

// TestPredictContentBatchRejectsForeignLatents: an encoding with the wrong
// layer count (a stale or foreign cache entry) must fail at batch entry with
// a message naming the mismatch.
func TestPredictContentBatchRejectsForeignLatents(t *testing.T) {
	m, ds := tinyModel(t)
	info := metafeat.FromCorpusTable(ds.Test[0], false, 0)
	menc := m.EncodeMetadata(m.Encoder().BuildMetaInput(info, false)).CloneDetach()
	menc.Layers = menc.Layers[:len(menc.Layers)-1]
	reqs := []ContentRequest{{Menc: menc, Table: info, Cols: []int{0}}}
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "metadata encoding has") {
			t.Fatalf("panic %q does not name the layer mismatch", msg)
		}
	}()
	m.PredictContentBatch(reqs, 3)
}

package adtd

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/metafeat"
	"repro/internal/tensor"
)

// CloneDetach returns a graph-free deep copy whose buffers are independent
// of the producing graph, so it survives Release of the original encoding.
func (e *MetaEncoding) CloneDetach() *MetaEncoding {
	out := &MetaEncoding{In: e.In}
	for _, l := range e.Layers {
		out.Layers = append(out.Layers, &tensor.Tensor{Rows: l.Rows, Cols: l.Cols, Data: slices.Clone(l.Data)})
	}
	return out
}

// TestPredictContentBatchMatchesUnbatched verifies the batched Phase-2 path
// against one call per chunk: the key spans must isolate the chunks so every
// probability row matches its unbatched counterpart bit for bit.
func TestPredictContentBatchMatchesUnbatched(t *testing.T) {
	m, ds := tinyModel(t)
	const cells = 3

	var reqs []ContentRequest
	var want [][][]float64
	for ti := 0; ti < 3 && ti < len(ds.Test); ti++ {
		info := metafeat.FromCorpusTable(ds.Test[ti], false, 0)
		cols := []int{0}
		if len(info.Columns) > 1 {
			cols = append(cols, len(info.Columns)-1)
		}
		menc := m.EncodeMetadata(m.Encoder().BuildMetaInput(info, false))
		alone := ContentRequest{Menc: menc.CloneDetach(), Table: info, Cols: cols}
		want = append(want, m.PredictContentBatch([]ContentRequest{alone}, cells)[0])
		reqs = append(reqs, ContentRequest{Menc: menc, Table: info, Cols: cols})
	}

	got := m.PredictContentBatch(reqs, cells)
	if len(got) != len(reqs) {
		t.Fatalf("batch returned %d results for %d requests", len(got), len(reqs))
	}
	for r := range reqs {
		sameProbs(t, fmt.Sprintf("request %d", r), got[r], want[r])
	}
}

// TestPredictContentBatchSingleRequest exercises the everything-visible
// case, one single-column request, against the training forward.
func TestPredictContentBatchSingleRequest(t *testing.T) {
	m, ds := tinyModel(t)
	info := metafeat.FromCorpusTable(ds.Test[0], false, 0)
	menc := m.EncodeMetadata(m.Encoder().BuildMetaInput(info, false))
	req := ContentRequest{Menc: menc, Table: info, Cols: []int{0}}
	want := composedContent(m, req, 3)
	got := m.PredictContentBatch([]ContentRequest{req}, 3)
	if len(got) != 1 || len(got[0]) != 1 {
		t.Fatalf("unexpected batch shape")
	}
	sameProbs(t, "single request", got[0], want)
}

// TestPredictContentBatchSymmetric checks the ablation tower's batched spans.
func TestPredictContentBatchSymmetric(t *testing.T) {
	m, ds := tinyModel(t)
	m.Cfg.SymmetricContent = true
	defer func() { m.Cfg.SymmetricContent = false }()
	var reqs []ContentRequest
	var want [][][]float64
	for ti := 0; ti < 2 && ti < len(ds.Test); ti++ {
		info := metafeat.FromCorpusTable(ds.Test[ti], false, 0)
		cols := []int{0}
		if len(info.Columns) > 1 {
			cols = append(cols, 1)
		}
		menc := m.EncodeMetadata(m.Encoder().BuildMetaInput(info, false))
		alone := ContentRequest{Menc: menc.CloneDetach(), Table: info, Cols: cols}
		want = append(want, m.PredictContentBatch([]ContentRequest{alone}, 3)[0])
		reqs = append(reqs, ContentRequest{Menc: menc, Table: info, Cols: cols})
	}
	got := m.PredictContentBatch(reqs, 3)
	for r := range want {
		sameProbs(t, fmt.Sprintf("req %d", r), got[r], want[r])
	}
}

// TestPredictContentBatchReleasesFreshEncodings documents the ownership
// contract: fresh encodings passed into the batch are consumed.
func TestPredictContentBatchReleasesFreshEncodings(t *testing.T) {
	m, ds := tinyModel(t)
	info := metafeat.FromCorpusTable(ds.Test[0], false, 0)
	menc := m.EncodeMetadata(m.Encoder().BuildMetaInput(info, false))
	cached := menc.CloneDetach()
	m.PredictContentBatch([]ContentRequest{{Menc: menc, Table: info, Cols: []int{0}}}, 3)
	if menc.Final().Data != nil {
		t.Fatal("fresh encoding must be released by the batch call")
	}
	if cached.Final().Data == nil {
		t.Fatal("deep copy must survive the batch call")
	}
	// The surviving copy must still be usable for another pass.
	out := m.PredictContentBatch([]ContentRequest{{Menc: cached, Table: info, Cols: []int{0}}}, 3)
	if len(out) != 1 || len(out[0]) != 1 {
		t.Fatal("cached encoding unusable after release of the original")
	}
}

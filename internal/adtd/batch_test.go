package adtd

import (
	"math"
	"testing"

	"repro/internal/metafeat"
)

// TestPredictContentBatchMatchesUnbatched verifies the batched Phase-2 path
// against per-chunk PredictContent: the key spans must isolate the chunks
// so every probability row matches its unbatched counterpart.
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
		want = append(want, m.PredictContent(menc, info, cols, cells))
		reqs = append(reqs, ContentRequest{Menc: menc, Table: info, Cols: cols})
	}

	got := m.PredictContentBatch(reqs, cells)
	if len(got) != len(reqs) {
		t.Fatalf("batch returned %d results for %d requests", len(got), len(reqs))
	}
	for r := range reqs {
		if len(got[r]) != len(want[r]) {
			t.Fatalf("request %d: %d rows, want %d", r, len(got[r]), len(want[r]))
		}
		for c := range want[r] {
			for s := range want[r][c] {
				if d := math.Abs(got[r][c][s] - want[r][c][s]); d > 1e-9 {
					t.Fatalf("request %d col %d type %d: batched %v vs unbatched %v (Δ %g)",
						r, c, s, got[r][c][s], want[r][c][s], d)
				}
			}
		}
	}
}

// TestPredictContentBatchSingleRequest exercises the everything-visible
// case: one single-column request.
func TestPredictContentBatchSingleRequest(t *testing.T) {
	m, ds := tinyModel(t)
	info := metafeat.FromCorpusTable(ds.Test[0], false, 0)
	menc := m.EncodeMetadata(m.Encoder().BuildMetaInput(info, false))
	want := m.PredictContent(menc, info, []int{0}, 3)
	got := m.PredictContentBatch([]ContentRequest{{Menc: menc, Table: info, Cols: []int{0}}}, 3)
	if len(got) != 1 || len(got[0]) != 1 {
		t.Fatalf("unexpected batch shape")
	}
	for s := range want[0] {
		if math.Abs(got[0][0][s]-want[0][s]) > 1e-9 {
			t.Fatalf("type %d: %v vs %v", s, got[0][0][s], want[0][s])
		}
	}
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
		want = append(want, m.PredictContent(menc, info, cols, 3))
		reqs = append(reqs, ContentRequest{Menc: menc, Table: info, Cols: cols})
	}
	got := m.PredictContentBatch(reqs, 3)
	for r := range want {
		for c := range want[r] {
			for s := range want[r][c] {
				if math.Abs(got[r][c][s]-want[r][c][s]) > 1e-9 {
					t.Fatalf("req %d col %d type %d: %v vs %v", r, c, s, got[r][c][s], want[r][c][s])
				}
			}
		}
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

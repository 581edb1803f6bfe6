package adtd

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/metafeat"
)

// composedMeta is PredictMeta's reference: the training ops, run in train
// mode so every layer takes the composed autograd ops.
func composedMeta(m *Model, info *metafeat.TableInfo) [][]float64 {
	m.SetTrain()
	defer m.SetEval()
	menc := m.encodeMetadataGraph(m.enc.BuildMetaInput(info, false))
	return Sigmoid(m.MetaLogits(menc))
}

// composedContent is PredictContentBatch's reference for one request: the
// per-request training forward, metadata encode included, in train mode.
func composedContent(m *Model, req ContentRequest, n int) [][]float64 {
	m.SetTrain()
	defer m.SetEval()
	menc := m.encodeMetadataGraph(m.enc.BuildMetaInput(req.Table, false))
	in := m.enc.BuildContentInput(req.Table, req.Cols, n)
	return Sigmoid(m.ContentLogits(menc, in, m.EncodeContent(menc, in)))
}

// sameProbs fails t unless got and want hold the same bits.
func sameProbs(t *testing.T, what string, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for c := range want {
		if len(got[c]) != len(want[c]) {
			t.Fatalf("%s row %d: %d types, want %d", what, c, len(got[c]), len(want[c]))
		}
		for s := range want[c] {
			if got[c][s] != want[c][s] {
				t.Fatalf("%s row %d type %d: %v != %v", what, c, s, got[c][s], want[c][s])
			}
		}
	}
}

// TestPredictMetaFastMatchesSlow: the whole Phase-1 forward — embedding,
// transformer stack, pooling, classifier, sigmoid — must produce the
// probabilities the training ops compute, bit for bit.
func TestPredictMetaFastMatchesSlow(t *testing.T) {
	m, ds := tinyModel(t)
	for ti := 0; ti < 3 && ti < len(ds.Test); ti++ {
		info := metafeat.FromCorpusTable(ds.Test[ti], false, 0)
		_, fast := m.PredictMeta(info, false)
		sameProbs(t, fmt.Sprintf("table %d", ti), fast, composedMeta(m, info))
	}
}

// TestPredictContentBatchFastMatchesSlow: Phase 2 batched over several
// chunks, both mask regimes, against the per-request training forward.
func TestPredictContentBatchFastMatchesSlow(t *testing.T) {
	for _, symmetric := range []bool{false, true} {
		m, ds := tinyModel(t)
		m.Cfg.SymmetricContent = symmetric
		const cells = 3
		var reqs []ContentRequest
		for ti := 0; ti < 3 && ti < len(ds.Test); ti++ {
			info := metafeat.FromCorpusTable(ds.Test[ti], false, 0)
			cols := []int{0}
			if len(info.Columns) > 1 {
				cols = append(cols, len(info.Columns)-1)
			}
			menc := m.EncodeMetadata(m.Encoder().BuildMetaInput(info, false))
			reqs = append(reqs, ContentRequest{Menc: menc, Table: info, Cols: cols})
		}
		fast := m.PredictContentBatch(reqs, cells)
		for r, req := range reqs {
			sameProbs(t, fmt.Sprintf("symmetric=%v req %d", symmetric, r), fast[r], composedContent(m, req, cells))
		}
	}
}

// TestInferenceCallsPanicInTrainMode: the inference calls have one body,
// the fused one, and it refuses grad-requiring weights instead of silently
// running the training ops.
func TestInferenceCallsPanicInTrainMode(t *testing.T) {
	m, ds := tinyModel(t)
	info := metafeat.FromCorpusTable(ds.Test[0], false, 0)
	menc := m.EncodeMetadata(m.Encoder().BuildMetaInput(info, false)).CloneDetach()
	m.SetTrain()
	defer m.SetEval()
	for name, call := range map[string]func(){
		"PredictMeta":    func() { m.PredictMeta(info, false) },
		"EncodeMetadata": func() { m.EncodeMetadata(m.Encoder().BuildMetaInput(info, false)) },
		"PredictContentBatch": func() {
			m.PredictContentBatch([]ContentRequest{{Menc: menc, Table: info, Cols: []int{0}}}, 3)
		},
	} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "grad-requiring parent") {
					t.Errorf("%s in train mode: panic %q, want the grad-requiring-parent one", name, msg)
				}
			}()
			call()
		}()
	}
}

// TestInferenceWithHeadsRequiringGrad: a model whose classifier heads alone
// require grad must still answer the eval-mode bits, before and after: the
// fast path is chosen per layer, and the frozen towers keep theirs.
func TestInferenceWithHeadsRequiringGrad(t *testing.T) {
	m, ds := tinyModel(t)
	info := metafeat.FromCorpusTable(ds.Test[0], false, 0)
	menc := m.EncodeMetadata(m.Encoder().BuildMetaInput(info, false)).CloneDetach()
	cols := []int{0}
	if len(info.Columns) > 1 {
		cols = append(cols, len(info.Columns)-1)
	}
	reqs := []ContentRequest{{Menc: menc, Table: info, Cols: cols}}
	run := func() ([][]float64, [][]float64) {
		_, meta := m.PredictMeta(info, false)
		return meta, m.PredictContentBatch(reqs, 3)[0]
	}
	meta, content := run()
	heads := append(m.MetaCls.Params(), m.ContCls.Params()...)
	for _, p := range heads {
		p.SetRequiresGrad(true)
	}
	gotMeta, gotContent := run()
	sameProbs(t, "meta, heads requiring grad", gotMeta, meta)
	sameProbs(t, "content, heads requiring grad", gotContent, content)
	for _, p := range heads {
		p.SetRequiresGrad(false)
	}
	gotMeta, gotContent = run()
	sameProbs(t, "meta, heads frozen again", gotMeta, meta)
	sameProbs(t, "content, heads frozen again", gotContent, content)
}

// TestFastPathInvalidatedOnWeightChange: mutating weights (training mode or
// a checkpoint load) must drop the packed QKV weights so the fast path never
// serves stale parameters.
func TestFastPathInvalidatedOnWeightChange(t *testing.T) {
	m, ds := tinyModel(t)
	info := metafeat.FromCorpusTable(ds.Test[0], false, 0)
	_, before := m.PredictMeta(info, false) // populates the packs
	m.Blocks[0].Attn.WQ.W.Data[0] += 0.5
	// An out-of-band mutation is surfaced by a mode transition: entering and
	// leaving train mode invalidates the packs. (A redundant SetEval on an
	// already-frozen model is deliberately a no-op — hot-swap relies on
	// re-freezing being write-free for models concurrently serving reads.)
	m.SetTrain()
	m.SetEval()
	_, after := m.PredictMeta(info, false)
	same := true
	for c := range before {
		for s := range before[c] {
			if before[c][s] != after[c][s] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("weight mutation did not change predictions: stale packed weights served")
	}
}

// TestPredictContentBatchAllocCeiling pins the steady-state allocation count
// of the batched Phase-2 serving path: workspaces and the arena must absorb
// all large buffers, leaving only per-call bookkeeping.
func TestPredictContentBatchAllocCeiling(t *testing.T) {
	m, ds := tinyModel(t)
	const cells = 3
	var reqs []ContentRequest
	for ti := 0; ti < 2 && ti < len(ds.Test); ti++ {
		info := metafeat.FromCorpusTable(ds.Test[ti], false, 0)
		cols := []int{0}
		if len(info.Columns) > 1 {
			cols = append(cols, 1)
		}
		menc := m.EncodeMetadata(m.Encoder().BuildMetaInput(info, false))
		// Detached copies survive the batch calls, like cached encodings do.
		reqs = append(reqs, ContentRequest{Menc: menc.CloneDetach(), Table: info, Cols: cols})
		menc.Release()
	}
	m.PredictContentBatch(reqs, cells) // warm pools
	const ceiling = 400
	if got := testing.AllocsPerRun(10, func() { m.PredictContentBatch(reqs, cells) }); got > ceiling {
		t.Fatalf("PredictContentBatch: %.0f allocs/op, ceiling %d", got, ceiling)
	}
}

package adtd

import (
	"time"

	"repro/internal/metafeat"
	"repro/internal/tensor"
)

// ContentRequest names one unit of Phase-2 work for batched inference: a
// table chunk (with cell values populated), the columns to classify, and
// the chunk's metadata encoding (cached or freshly computed).
type ContentRequest struct {
	Menc  *MetaEncoding
	Table *metafeat.TableInfo
	Cols  []int
}

// PredictContentBatch runs the content tower over several chunks' requests
// in one forward pass. The chunks' content sequences are concatenated and
// per-(chunk, column) key spans (contentSpans) keep every row's attention
// confined to its own chunk's metadata and (per §6.4) its own column's
// content, so each row of the result equals the corresponding unbatched
// PredictContent output; the batching only amortizes the per-kernel dispatch
// and classifier overhead, and a row costs the keys it sees however many
// chunks share the forward.
//
// The batch's autograd graph — including any *fresh* metadata encodings the
// requests reference — is released into the tensor arena before returning.
// Encodings obtained from the latent cache (internal/cache) are graph-free
// Detach views: their layers are leaves, so the release walk skips them and
// cached latents survive. Callers who want a fresh encoding to survive must
// hand it to the cache (whose Put consumes it) or CloneDetach it first.
//
// n is the per-column cell budget, as in PredictContent. The outer result
// slice is indexed like reqs; each entry holds one probability row per
// requested column.
func (m *Model) PredictContentBatch(reqs []ContentRequest, n int) [][][]float64 {
	if len(reqs) == 0 {
		return nil
	}
	for _, req := range reqs {
		m.checkLatents(req.Menc)
	}
	defer observeContentForward(time.Now(), len(reqs))
	if m.evalFast() && batchNoGrad(reqs) {
		return m.predictContentBatchFast(reqs, n)
	}

	cins := make([]*ContentInput, len(reqs))
	mencs := make([]*MetaEncoding, len(reqs))
	embeds := make([]*tensor.Tensor, len(reqs))
	for r, req := range reqs {
		mencs[r] = req.Menc
		cin := m.enc.BuildContentInput(req.Table, req.Cols, n)
		segs := make([]int, len(cin.IDs))
		for i := range segs {
			segs[i] = 2
		}
		cins[r] = cin
		// Positions restart per chunk, exactly as in the unbatched path.
		embeds[r] = m.embed(cin.IDs, segs)
	}
	content := embeds[0]
	if len(embeds) > 1 {
		content = tensor.ConcatRows(embeds...)
	}

	if m.Cfg.SymmetricContent {
		mask := contentMask(nil, cins)
		for _, b := range m.Blocks {
			content = b.SelfForward(content, mask)
		}
	} else {
		mask := contentMask(mencs, cins)
		for li, b := range m.Blocks {
			kv := make([]*tensor.Tensor, 0, len(reqs)+1)
			for _, req := range reqs {
				kv = append(kv, req.Menc.Layers[li])
			}
			kv = append(kv, content)
			content = b.Forward(content, tensor.ConcatRows(kv...), mask)
		}
	}

	// Classifier features for every requested column across the batch, then
	// one classifier forward for the whole batch.
	features := make([]*tensor.Tensor, len(reqs))
	off := 0
	for r, req := range reqs {
		cin := cins[r]
		chunk := tensor.SliceRows(content, off, off+cin.Len())
		off += cin.Len()
		contentPooled := poolSpans(chunk, cin.ColSpans)
		metaSpans := make([][2]int, len(cin.Columns))
		nonTextual := make([][]float64, len(cin.Columns))
		for slot, ci := range cin.Columns {
			metaSpans[slot] = req.Menc.In.ColSpans[ci]
			nonTextual[slot] = req.Menc.In.NonTextual[ci]
		}
		metaPooled := poolSpans(req.Menc.Final(), metaSpans)
		features[r] = tensor.ConcatCols(contentPooled, metaPooled, tensor.FromRows(nonTextual))
	}
	stacked := features[0]
	if len(features) > 1 {
		stacked = tensor.ConcatRows(features...)
	}
	logits := m.ContCls.Forward(stacked)
	all := Sigmoid(logits)
	tensor.ReleaseGraph(logits)

	out := make([][][]float64, len(reqs))
	row := 0
	for r := range reqs {
		nc := len(cins[r].Columns)
		out[r] = all[row : row+nc]
		row += nc
	}
	return out
}

// batchNoGrad reports whether every request's metadata latents are frozen,
// part of the fast-path eligibility check.
func batchNoGrad(reqs []ContentRequest) bool {
	for _, req := range reqs {
		if !tensor.NoGrad(req.Menc.Layers...) {
			return false
		}
	}
	return true
}

// contentMask is contentSpans materialized as the dense additive mask the
// composed autograd ops take — the only place a mask is ever built. nil when
// nothing is hidden (one single-column chunk).
func contentMask(mencs []*MetaEncoding, cins []*ContentInput) *tensor.Tensor {
	spans, lkv := contentSpans(mencs, cins)
	lq := 0
	for _, cin := range cins {
		lq += cin.Len()
	}
	return tensor.DenseMask(spans, lq, lkv)
}

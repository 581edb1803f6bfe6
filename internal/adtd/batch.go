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

// PredictContentBatch is the Phase-2 inference call: it runs the content
// tower over one or more chunks' requests in one forward pass. The chunks'
// content sequences are concatenated and per-(chunk, column) key spans
// (contentSpans) keep every row's attention confined to its own chunk's
// metadata and (per §6.4) its own column's content, so each chunk's rows
// equal what the chunk gets alone; the batching only amortizes the
// per-kernel dispatch and classifier overhead, and a row costs the keys it
// sees however many chunks share the forward. One workspace holds every
// intermediate, the classifier features included, so its size grows with the
// batch's rows, not their square.
//
// The batch's autograd graph — including any *fresh* metadata encodings the
// requests reference — is released into the tensor arena before returning.
// Encodings obtained from the latent cache (internal/cache) are graph-free
// Detach views: their layers are leaves, so the release walk skips them and
// cached latents survive. Callers who want a fresh encoding to survive must
// hand it to the cache (whose Put consumes it) or CloneDetach it first.
//
// n is the per-column cell budget. The outer result slice is indexed like
// reqs; each entry holds one probability row per requested column.
func (m *Model) PredictContentBatch(reqs []ContentRequest, n int) [][][]float64 {
	if len(reqs) == 0 {
		return nil
	}
	for _, req := range reqs {
		m.checkLatents(req.Menc)
	}
	defer observeContentForward(time.Now(), len(reqs))
	ws := tensor.AcquireWorkspace()
	h := m.Cfg.Hidden

	cins := make([]*ContentInput, len(reqs))
	mencs := make([]*MetaEncoding, len(reqs))
	embeds := make([]*tensor.Tensor, len(reqs))
	total := 0
	for r, req := range reqs {
		cin := m.enc.BuildContentInput(req.Table, req.Cols, n)
		cins[r] = cin
		mencs[r] = req.Menc
		// Positions restart per chunk.
		embeds[r] = m.embedFast(cin.IDs, nil, 2)
		total += cin.Len()
	}
	content := embeds[0]
	if len(embeds) > 1 {
		// ConcatRows without the zeroed allocation; the embeds stay parents
		// so the final release reaches them.
		content = tensor.InferenceResult(total, h, embeds...)
		off := 0
		for _, e := range embeds {
			copy(content.Data[off:off+len(e.Data)], e.Data)
			off += len(e.Data)
		}
	}
	content = m.contentTowerWS(ws, mencs, cins, content)

	totalCols := 0
	for _, cin := range cins {
		totalCols += len(cin.Columns)
	}
	x := ws.Matrix(totalCols, m.ContCls.Hidden.In())
	rowBase, off := 0, 0
	for r, req := range reqs {
		m.contentLogitsWS(ws, x, rowBase, req.Menc, cins[r], content, off)
		rowBase += len(cins[r].Columns)
		off += cins[r].Len()
	}
	parents := make([]*tensor.Tensor, 0, len(reqs)+1)
	parents = append(parents, content)
	for _, req := range reqs {
		parents = append(parents, req.Menc.Final())
	}
	logits := m.ContCls.ForwardWS(ws, x, parents...)
	all := Sigmoid(logits)
	tensor.ReleaseGraph(logits)
	tensor.ReleaseWorkspace(ws)

	out := make([][][]float64, len(reqs))
	row := 0
	for r := range reqs {
		nc := len(cins[r].Columns)
		out[r] = all[row : row+nc]
		row += nc
	}
	return out
}

// contentMask is contentSpans materialized as the dense additive mask the
// training ops take — the only place a mask is ever built. nil when nothing
// is hidden (one single-column chunk).
func contentMask(mencs []*MetaEncoding, cins []*ContentInput) *tensor.Tensor {
	spans, lkv := contentSpans(mencs, cins)
	lq := 0
	for _, cin := range cins {
		lq += cin.Len()
	}
	return tensor.DenseMask(spans, lq, lkv)
}

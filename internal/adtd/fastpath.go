// The inference bodies: fused embedding gather, workspace-threaded tower
// forwards, and fused span pooling feeding the classifier heads, behind the
// inference calls PredictMeta, EncodeMetadata and PredictContentBatch. The
// training ops (encodeMetadataGraph, MetaLogits, EncodeContent,
// ContentLogits) run the composed autograd ops, and every routine here is
// bit-exact against them (the per-layer kernels guarantee it — see
// nn/fastpath.go and tensor/fused.go; the pooling below reproduces the
// composed op order element for element, and the attention key spans hide
// exactly what the training ops' dense mask hides), so an inference call
// returns the bytes the training forward computes in train mode. Enforced
// by fastpath_test.go.
package adtd

import (
	"repro/internal/tensor"
)

// invalidatePacks drops every cached fast-path weight pack (the fused
// attention projections) and bumps the weight generation that versions
// memoized model outputs; called whenever parameters may have changed in
// place (grad-mode flips, checkpoint loads, feedback updates) so the next
// fast forward repacks fresh weights and stale cached predictions stop
// resolving.
func (m *Model) invalidatePacks() {
	for _, b := range m.Blocks {
		b.InvalidateFastPath()
	}
	m.gen.Store(nextGeneration())
}

// embedFast is embed() in one pass: token+position+segment rows summed
// directly into an arena tensor, with no per-table gather tensors and no
// position-id slice. segments may be nil, in which case constSeg is used for
// every position (the content tower's constant segment 2). Each element is
// (tok + pos) + seg, the same left-associative order as Add(Add(...)).
func (m *Model) embedFast(ids, segments []int, constSeg int) *tensor.Tensor {
	h := m.Cfg.Hidden
	out := tensor.InferenceResult(len(ids), h, m.TokEmbed.Table, m.PosEmbed.Table, m.SegEmbed.Table)
	tok := m.TokEmbed.Table.Data
	pos := m.PosEmbed.Table.Data
	seg := m.SegEmbed.Table.Data
	maxPos := m.Cfg.MaxSeq - 1
	for i, id := range ids {
		p := i
		if p > maxPos {
			p = maxPos
		}
		s := constSeg
		if segments != nil {
			s = segments[i]
		}
		trow := tok[id*h : (id+1)*h]
		prow := pos[p*h : (p+1)*h]
		srow := seg[s*h : (s+1)*h]
		drow := out.Data[i*h : (i+1)*h]
		for j := range drow {
			drow[j] = trow[j] + prow[j] + srow[j]
		}
	}
	return out
}

// encodeMetadataWS is EncodeMetadata threading one warm workspace through
// every block.
func (m *Model) encodeMetadataWS(ws *tensor.Workspace, in *MetaInput) *MetaEncoding {
	enc := &MetaEncoding{In: in}
	x := m.embedFast(in.IDs, in.Segments, 0)
	enc.Layers = append(enc.Layers, x)
	for _, b := range m.Blocks {
		x = b.ForwardWS(ws, x, x, nil)
		enc.Layers = append(enc.Layers, x)
	}
	return enc
}

// metaLogitsWS assembles the per-column classifier features
// [meanpool(span) ⊕ nonTextual] in workspace scratch and runs the metadata
// head fused. The returned logits are arena-backed with the final latents as
// parent, so they survive workspace release.
func (m *Model) metaLogitsWS(ws *tensor.Workspace, enc *MetaEncoding) *tensor.Tensor {
	h := m.Cfg.Hidden
	final := enc.Final()
	width := m.MetaCls.Hidden.In()
	x := ws.Matrix(len(enc.In.ColSpans), width)
	for i, sp := range enc.In.ColSpans {
		row := x.Data[i*width : (i+1)*width]
		tensor.MeanPoolRowsInto(row[:h], final.Data, h, sp[0], sp[1])
		copy(row[h:], enc.In.NonTextual[i])
	}
	return m.MetaCls.ForwardWS(ws, x, final)
}

// contentSpans lists the keys every content row of a batch may attend to
// (§6.4): its own chunk's metadata block and its own column's content span,
// one tensor.AttnSpan per (chunk, column). Rows are the chunks' content
// positions concatenated in request order; keys are every chunk's metadata
// block (in request order) followed by that concatenated content, lkv in
// all. mencs == nil is the SymmetricContent ablation: no metadata keys, own
// column only. ContentInput.ColSpans already tile each chunk's positions by
// column, so the spans cost nothing to derive — and at most two ranges per
// row is all the fused attention kernels ever visit, however many chunks
// share the forward.
func contentSpans(mencs []*MetaEncoding, cins []*ContentInput) (spans []tensor.AttnSpan, lkv int) {
	totalMeta := 0
	for _, me := range mencs {
		totalMeta += me.In.Len()
	}
	metaOff, rowOff := 0, 0
	for r, cin := range cins {
		var meta [2]int
		if mencs != nil {
			meta = [2]int{metaOff, metaOff + mencs[r].In.Len()}
			metaOff = meta[1]
		}
		for _, sp := range cin.ColSpans {
			lo, hi := rowOff+sp[0], rowOff+sp[1]
			spans = append(spans, tensor.AttnSpan{
				RowLo: lo, RowHi: hi,
				A: meta, B: [2]int{totalMeta + lo, totalMeta + hi},
			})
		}
		rowOff += cin.Len()
	}
	return spans, totalMeta + rowOff
}

// contentTowerWS runs the content tower over the concatenated content
// embeddings of one or more chunks, threading one workspace: each layer
// attends over workspace-assembled [metadata ⊕ content] keys/values under
// the batch's key spans. No mask is materialized.
func (m *Model) contentTowerWS(ws *tensor.Workspace, mencs []*MetaEncoding, cins []*ContentInput, content *tensor.Tensor) *tensor.Tensor {
	if m.Cfg.SymmetricContent {
		spans, _ := contentSpans(nil, cins)
		for _, b := range m.Blocks {
			content = b.ForwardWS(ws, content, content, spans)
		}
		return content
	}
	spans, _ := contentSpans(mencs, cins)
	parts := make([]*tensor.Tensor, len(mencs)+1)
	for li, b := range m.Blocks {
		for r, me := range mencs {
			parts[r] = me.Layers[li]
		}
		parts[len(mencs)] = content
		content = b.ForwardKVConcatWS(ws, content, parts, spans)
	}
	return content
}

// contentLogitsWS assembles the content head's features
// [meanpool(content span) ⊕ meanpool(metadata span) ⊕ nonTextual] for one
// chunk into rows rowBase… of x. contentOff shifts the content spans, which
// is how a chunk is pooled out of a concatenated batch.
func (m *Model) contentLogitsWS(ws *tensor.Workspace, x *tensor.Tensor, rowBase int, menc *MetaEncoding, in *ContentInput, content *tensor.Tensor, contentOff int) {
	h := m.Cfg.Hidden
	width := x.Cols
	final := menc.Final()
	for slot, ci := range in.Columns {
		row := x.Data[(rowBase+slot)*width : (rowBase+slot+1)*width]
		sp := in.ColSpans[slot]
		tensor.MeanPoolRowsInto(row[:h], content.Data, h, contentOff+sp[0], contentOff+sp[1])
		msp := menc.In.ColSpans[ci]
		tensor.MeanPoolRowsInto(row[h:2*h], final.Data, h, msp[0], msp[1])
		copy(row[2*h:], menc.In.NonTextual[ci])
	}
}

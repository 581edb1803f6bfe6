// NoGrad fast paths for the nn layers, built on the fused kernels in
// internal/tensor. A layer takes its fast path exactly when neither its
// inputs nor its parameters require grad (tensor.NoGrad; the serve-time
// configuration after Model.SetEval) and runs the composed autograd ops
// otherwise, so training keeps its graph and the composed ops stay the
// reference the fused ones are tested against, bit for bit — see
// fastpath_test.go.
package nn

import (
	"math"

	"repro/internal/tensor"
)

// qkvPack is the fused attention projection: the three H×H query/key/value
// weight matrices packed column-wise into one H×3H matrix (and biases into
// one 3H vector), so self-attention projects Q, K and V with a single
// matmul over the input.
type qkvPack struct {
	w []float64 // in × 3H row-major: [WQ | WK | WV]
	b []float64 // 3H
}

// pack returns the cached packed projection, building it on first use.
// Safe for concurrent inference: the pointer is published atomically and a
// racing rebuild just wastes one allocation.
func (a *MultiHeadAttention) pack() *qkvPack {
	if p := a.packed.Load(); p != nil {
		return p
	}
	h := a.Hidden
	p := &qkvPack{w: make([]float64, h*3*h), b: make([]float64, 3*h)}
	for i := 0; i < h; i++ {
		row := p.w[i*3*h : (i+1)*3*h]
		copy(row[0:h], a.WQ.W.Row(i))
		copy(row[h:2*h], a.WK.W.Row(i))
		copy(row[2*h:3*h], a.WV.W.Row(i))
	}
	copy(p.b[0:h], a.WQ.B.Data)
	copy(p.b[h:2*h], a.WK.B.Data)
	copy(p.b[2*h:3*h], a.WV.B.Data)
	a.packed.Store(p)
	return p
}

// InvalidateFastPath drops the packed projection; call after mutating the
// attention weights in place (checkpoint load, optimizer step) so the next
// fast forward repacks. Model-level SetEval/SetTrain/Load do this for you.
func (a *MultiHeadAttention) InvalidateFastPath() { a.packed.Store(nil) }

// InvalidateFastPath drops the block's cached attention projection pack.
func (b *TransformerBlock) InvalidateFastPath() { b.Attn.InvalidateFastPath() }

// fastEligible reports whether the fused path may run. It takes no mask: the
// fused kernels know visibility only as key spans (tensor.AttnSpan), so a
// forward handed a dense additive mask always runs the composed ops.
func (a *MultiHeadAttention) fastEligible(q, kv *tensor.Tensor) bool {
	return tensor.NoGrad(q, kv, a.WQ.W, a.WQ.B, a.WK.W, a.WK.B, a.WV.W, a.WV.B, a.WO.W, a.WO.B)
}

// forwardFastInto runs fused attention into dst (lq × Hidden). q and kv are
// raw row-major activations; passing the same slice for both selects the
// packed single-matmul self-attention projection. spans (nil = everything)
// names the keys each query row may attend to.
func (a *MultiHeadAttention) forwardFastInto(ws *tensor.Workspace, dst []float64, q []float64, lq int, kv []float64, lkv int, spans []tensor.AttnSpan) {
	h := a.Hidden
	pk := a.pack()
	headDim := h / a.Heads
	sh := AttnShapeFor(lq, lkv, a.Heads, headDim)
	var qp, kvp []float64
	if lq == lkv && &q[0] == &kv[0] {
		proj := ws.Take(lq * 3 * h)
		tensor.LinearInto(proj, q, lq, h, pk.w, 3*h, 0, 3*h, pk.b)
		qp, kvp = proj, proj
		sh.QOff, sh.QStride = 0, 3*h
		sh.KOff, sh.VOff, sh.KVStride = h, 2*h, 3*h
	} else {
		qp = ws.Take(lq * h)
		kvp = ws.Take(lkv * 2 * h)
		tensor.LinearInto(qp, q, lq, h, pk.w, 3*h, 0, h, pk.b)
		tensor.LinearInto(kvp, kv, lkv, h, pk.w, 3*h, h, 3*h, pk.b)
		sh.QOff, sh.QStride = 0, h
		sh.KOff, sh.VOff, sh.KVStride = 0, h, 2*h
	}
	core := ws.Take(lq * h)
	tensor.FusedAttentionCore(ws, core, qp, kvp, sh, spans)
	tensor.LinearInto(dst, core, lq, h, a.WO.W.Data, h, 0, h, a.WO.B.Data)
}

// AttnShapeFor fills the shape-invariant fields of an AttnShape.
func AttnShapeFor(lq, lkv, heads, headDim int) tensor.AttnShape {
	return tensor.AttnShape{
		Lq: lq, Lkv: lkv, Heads: heads, HeadDim: headDim,
		Scale: 1 / math.Sqrt(float64(headDim)),
	}
}

func (b *TransformerBlock) fastEligible(q, kv *tensor.Tensor) bool {
	return b.Attn.fastEligible(q, kv) &&
		tensor.NoGrad(b.LN1.Gamma, b.LN1.Beta, b.FF1.W, b.FF1.B, b.FF2.W, b.FF2.B, b.LN2.Gamma, b.LN2.Beta)
}

// forwardFastWS runs the whole block fused: attention, residual+LN1, the
// GELU feed-forward, residual+LN2. Every intermediate lives in ws; only the
// output is an arena tensor, with the given parents recorded so
// ReleaseGraph frees fused graphs like composed ones.
func (b *TransformerBlock) forwardFastWS(ws *tensor.Workspace, q *tensor.Tensor, kvData []float64, lkv int, spans []tensor.AttnSpan, parents []*tensor.Tensor) *tensor.Tensor {
	h := b.Attn.Hidden
	lq := q.Rows
	attn := ws.Take(lq * h)
	b.Attn.forwardFastInto(ws, attn, q.Data, lq, kvData, lkv, spans)
	x := ws.Take(lq * h)
	tensor.FusedAddLayerNormInto(x, q.Data, attn, b.LN1.Gamma.Data, b.LN1.Beta.Data, lq, h, b.LN1.Eps)
	inter := b.FF1.Out()
	hidden := ws.Take(lq * inter)
	tensor.LinearInto(hidden, x, lq, h, b.FF1.W.Data, inter, 0, inter, b.FF1.B.Data)
	tensor.FusedGELUInPlace(hidden)
	ff := ws.Take(lq * h)
	tensor.LinearInto(ff, hidden, lq, inter, b.FF2.W.Data, h, 0, h, b.FF2.B.Data)
	out := tensor.InferenceResult(lq, h, parents...)
	tensor.FusedAddLayerNormInto(out.Data, x, ff, b.LN2.Gamma.Data, b.LN2.Beta.Data, lq, h, b.LN2.Eps)
	return out
}

// ForwardWS is Forward with an explicit workspace for scratch buffers and
// attention visibility given as key spans (nil = everything): the fused path
// when eligible, otherwise the composed ops under the equivalent dense mask.
// Use it to thread one warm workspace through a multi-layer forward.
func (b *TransformerBlock) ForwardWS(ws *tensor.Workspace, q, kv *tensor.Tensor, spans []tensor.AttnSpan) *tensor.Tensor {
	if !b.fastEligible(q, kv) {
		return b.Forward(q, kv, tensor.DenseMask(spans, q.Rows, kv.Rows))
	}
	return b.forwardFastWS(ws, q, kv.Data, kv.Rows, spans, []*tensor.Tensor{q, kv})
}

// ForwardKVConcatWS runs the block with keys/values formed by vertically
// concatenating parts (the content tower's [metadata ⊕ content] wiring)
// without materializing the concatenation as a graph tensor: the rows are
// assembled in workspace scratch and every part is recorded as a parent of
// the output, so ReleaseGraph still reaches fresh metadata encodings.
func (b *TransformerBlock) ForwardKVConcatWS(ws *tensor.Workspace, q *tensor.Tensor, parts []*tensor.Tensor, spans []tensor.AttnSpan) *tensor.Tensor {
	lkv := 0
	for _, p := range parts {
		lkv += p.Rows
	}
	if !(b.fastEligible(q, q) && tensor.NoGrad(parts...)) {
		return b.Forward(q, tensor.ConcatRows(parts...), tensor.DenseMask(spans, q.Rows, lkv))
	}
	h := b.Attn.Hidden
	kvData := ws.Take(lkv * h)
	off := 0
	for _, p := range parts {
		copy(kvData[off:off+len(p.Data)], p.Data)
		off += len(p.Data)
	}
	parents := make([]*tensor.Tensor, 0, len(parts)+1)
	parents = append(parents, q)
	parents = append(parents, parts...)
	return b.forwardFastWS(ws, q, kvData, lkv, spans, parents)
}

// ForwardWS is the classifier forward with explicit workspace and explicit
// graph parents for the returned logits (defaulting to x when none are
// given). The fast path keeps the ReLU hidden layer in scratch.
func (c *MLPClassifier) ForwardWS(ws *tensor.Workspace, x *tensor.Tensor, parents ...*tensor.Tensor) *tensor.Tensor {
	if !tensor.NoGrad(x, c.Hidden.W, c.Hidden.B, c.Out.W, c.Out.B) || !tensor.NoGrad(parents...) {
		return c.Forward(x)
	}
	rows, in := x.Rows, c.Hidden.In()
	hid := c.Hidden.Out()
	hidden := ws.Take(rows * hid)
	tensor.LinearInto(hidden, x.Data, rows, in, c.Hidden.W.Data, hid, 0, hid, c.Hidden.B.Data)
	tensor.FusedReLUInPlace(hidden)
	if len(parents) == 0 {
		parents = []*tensor.Tensor{x}
	}
	out := tensor.InferenceResult(rows, c.Out.Out(), parents...)
	tensor.LinearInto(out.Data, hidden, rows, hid, c.Out.W.Data, c.Out.Out(), 0, c.Out.Out(), c.Out.B.Data)
	return out
}

package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"repro/internal/tensor"
)

// MultiHeadAttention implements the multi-head scaled dot-product attention
// of §2.3. It takes separate query and key/value inputs, which is what lets
// the ADTD content tower attend asymmetrically over the concatenation of
// metadata and content latents (§4.2.3): Q comes from the content stream
// while K and V come from [metadata ⊕ content].
type MultiHeadAttention struct {
	Hidden int
	Heads  int

	WQ, WK, WV, WO *Linear

	// packed caches the fused [WQ|WK|WV] projection for the NoGrad fast
	// path (fastpath.go); nil until first fast forward, dropped by
	// InvalidateFastPath when the weights change.
	packed atomic.Pointer[qkvPack]
}

// NewMultiHeadAttention creates an attention layer with hidden size divisible
// by heads.
func NewMultiHeadAttention(hidden, heads int, rng *rand.Rand) *MultiHeadAttention {
	if hidden%heads != 0 {
		panic(fmt.Sprintf("nn: hidden %d not divisible by heads %d", hidden, heads))
	}
	return &MultiHeadAttention{
		Hidden: hidden,
		Heads:  heads,
		WQ:     NewLinear(hidden, hidden, rng),
		WK:     NewLinear(hidden, hidden, rng),
		WV:     NewLinear(hidden, hidden, rng),
		WO:     NewLinear(hidden, hidden, rng),
	}
}

// Forward computes attention with queries from q (Lq × H) and keys/values
// from kv (Lkv × H). mask, when non-nil, is an additive Lq × Lkv matrix
// (use -Inf to hide positions, e.g. padding); a masked forward always runs
// the composed ops — the fused path takes key spans, see
// TransformerBlock.ForwardWS.
func (a *MultiHeadAttention) Forward(q, kv *tensor.Tensor, mask *tensor.Tensor) *tensor.Tensor {
	if q.Cols != a.Hidden || kv.Cols != a.Hidden {
		panic(fmt.Sprintf("nn: attention input width %d/%d, want %d", q.Cols, kv.Cols, a.Hidden))
	}
	if mask == nil && a.fastEligible(q, kv) {
		ws := tensor.AcquireWorkspace()
		out := tensor.InferenceResult(q.Rows, a.Hidden, q, kv)
		a.forwardFastInto(ws, out.Data, q.Data, q.Rows, kv.Data, kv.Rows, nil)
		tensor.ReleaseWorkspace(ws)
		return out
	}
	qp := a.WQ.Forward(q)
	kp := a.WK.Forward(kv)
	vp := a.WV.Forward(kv)

	headDim := a.Hidden / a.Heads
	scale := 1 / math.Sqrt(float64(headDim))
	heads := make([]*tensor.Tensor, a.Heads)
	for h := 0; h < a.Heads; h++ {
		from, to := h*headDim, (h+1)*headDim
		qh := tensor.SliceCols(qp, from, to)
		kh := tensor.SliceCols(kp, from, to)
		vh := tensor.SliceCols(vp, from, to)
		scores := tensor.Scale(tensor.MatMulNT(qh, kh), scale) // Lq × Lkv
		attn := tensor.SoftmaxRows(scores, mask)
		heads[h] = tensor.MatMul(attn, vh) // Lq × headDim
	}
	return a.WO.Forward(tensor.ConcatCols(heads...))
}

// Params implements Module.
func (a *MultiHeadAttention) Params() []*tensor.Tensor {
	return CollectParams(a.WQ, a.WK, a.WV, a.WO)
}

// TransformerBlock is a post-norm Transformer encoder layer as in Fig. 2:
// multi-head attention with residual + layer norm, followed by a
// position-wise feed-forward network (H → I → H, GELU) with residual +
// layer norm.
type TransformerBlock struct {
	Attn *MultiHeadAttention
	LN1  *LayerNorm
	FF1  *Linear
	FF2  *Linear
	LN2  *LayerNorm
}

// NewTransformerBlock creates a block with the given hidden size, head count
// and intermediate (feed-forward) size.
func NewTransformerBlock(hidden, heads, intermediate int, rng *rand.Rand) *TransformerBlock {
	return &TransformerBlock{
		Attn: NewMultiHeadAttention(hidden, heads, rng),
		LN1:  NewLayerNorm(hidden),
		FF1:  NewLinear(hidden, intermediate, rng),
		FF2:  NewLinear(intermediate, hidden, rng),
		LN2:  NewLayerNorm(hidden),
	}
}

// Forward runs the block with queries q and keys/values kv. Pass q == kv for
// self-attention. The residual connection is taken from q, so output shape is
// Lq × H. A non-nil dense mask always runs the composed ops, frozen weights
// or not — several times slower than the fused path at serve-time shapes —
// so inference code that restricts attention passes key spans to ForwardWS
// instead; mask is for the autograd path.
func (b *TransformerBlock) Forward(q, kv *tensor.Tensor, mask *tensor.Tensor) *tensor.Tensor {
	if mask == nil && b.fastEligible(q, kv) {
		ws := tensor.AcquireWorkspace()
		out := b.forwardFastWS(ws, q, kv.Data, kv.Rows, nil, []*tensor.Tensor{q, kv})
		tensor.ReleaseWorkspace(ws)
		return out
	}
	attnOut := b.Attn.Forward(q, kv, mask)
	x := b.LN1.Forward(tensor.Add(q, attnOut))
	ff := b.FF2.Forward(tensor.GELU(b.FF1.Forward(x)))
	return b.LN2.Forward(tensor.Add(x, ff))
}

// SelfForward is shorthand for Forward(x, x, mask).
func (b *TransformerBlock) SelfForward(x *tensor.Tensor, mask *tensor.Tensor) *tensor.Tensor {
	return b.Forward(x, x, mask)
}

// Params implements Module.
func (b *TransformerBlock) Params() []*tensor.Tensor {
	return CollectParams(b.Attn, b.LN1, b.FF1, b.FF2, b.LN2)
}

// MLPClassifier is a feed-forward head with one ReLU hidden layer and a
// linear output producing per-class logits (§4.3); apply a sigmoid to get
// multi-label probabilities.
type MLPClassifier struct {
	Hidden *Linear
	Out    *Linear
}

// NewMLPClassifier creates a classifier mapping in → hidden → classes.
func NewMLPClassifier(in, hidden, classes int, rng *rand.Rand) *MLPClassifier {
	return &MLPClassifier{
		Hidden: NewLinear(in, hidden, rng),
		Out:    NewLinear(hidden, classes, rng),
	}
}

// Forward returns raw logits (rows × classes).
func (c *MLPClassifier) Forward(x *tensor.Tensor) *tensor.Tensor {
	if tensor.NoGrad(x, c.Hidden.W, c.Hidden.B, c.Out.W, c.Out.B) {
		ws := tensor.AcquireWorkspace()
		out := c.ForwardWS(ws, x)
		tensor.ReleaseWorkspace(ws)
		return out
	}
	return c.Out.Forward(tensor.ReLU(c.Hidden.Forward(x)))
}

// Params implements Module.
func (c *MLPClassifier) Params() []*tensor.Tensor { return CollectParams(c.Hidden, c.Out) }

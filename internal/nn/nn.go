// Package nn provides the neural-network layers used by the ADTD model and
// the TURL/Doduo baselines: embeddings, linear projections, layer
// normalization, multi-head (self- and cross-) attention, Transformer
// encoder blocks, and MLP classifier heads. All layers are built on the
// autograd engine in internal/tensor: a forward over tensors none of which
// requires grad runs the fused NoGrad kernels (fastpath.go), any other
// runs the composed autograd ops, with bit-identical outputs.
//
// Every layer implements the Module interface so models can collect
// trainable parameters for the optimizer and for checkpointing. Layers are
// safe for concurrent read-only use (inference over shared parameters);
// training must be single-goroutine per parameter set.
package nn

import (
	"math/rand"

	"repro/internal/tensor"
)

// Module is anything that owns trainable parameters.
type Module interface {
	// Params returns the trainable parameter tensors in a stable order.
	Params() []*tensor.Tensor
}

// CollectParams concatenates the parameters of the given modules.
func CollectParams(ms ...Module) []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, m := range ms {
		out = append(out, m.Params()...)
	}
	return out
}

// Linear is a fully connected layer: y = xW + b.
type Linear struct {
	W *tensor.Tensor // in × out
	B *tensor.Tensor // 1 × out
}

// NewLinear creates a Xavier-initialized linear layer; with a nil rng its
// parameters are shaped but hold no data (see param).
func NewLinear(in, out int, rng *rand.Rand) *Linear {
	l := &Linear{W: param(in, out, rng), B: param(1, out, rng)}
	if rng != nil {
		tensor.XavierUniform(l.W, rng)
	}
	return l
}

// param returns a zero rows × cols parameter. With a nil rng it holds no
// data: the caller allocates it or points it at another model's weights
// (tensor.AliasData), so a layer whose weights come from elsewhere never
// allocates its own.
func param(rows, cols int, rng *rand.Rand) *tensor.Tensor {
	if rng != nil {
		return tensor.Param(rows, cols)
	}
	p := &tensor.Tensor{Rows: rows, Cols: cols}
	p.SetRequiresGrad(true)
	return p
}

// Forward applies the affine transform to x (rows × in). When neither x
// nor the parameters require grad the matmul and bias add run fused into
// one arena tensor.
func (l *Linear) Forward(x *tensor.Tensor) *tensor.Tensor {
	if tensor.NoGrad(x, l.W, l.B) {
		out := tensor.InferenceResult(x.Rows, l.Out(), x)
		tensor.LinearInto(out.Data, x.Data, x.Rows, l.In(), l.W.Data, l.Out(), 0, l.Out(), l.B.Data)
		return out
	}
	return tensor.AddRowVector(tensor.MatMul(x, l.W), l.B)
}

// Params implements Module.
func (l *Linear) Params() []*tensor.Tensor { return []*tensor.Tensor{l.W, l.B} }

// In returns the input width.
func (l *Linear) In() int { return l.W.Rows }

// Out returns the output width.
func (l *Linear) Out() int { return l.W.Cols }

// LayerNorm is a learnable per-feature normalization layer.
type LayerNorm struct {
	Gamma *tensor.Tensor
	Beta  *tensor.Tensor
	Eps   float64
}

// NewLayerNorm creates a layer norm over dim features (gamma=1, beta=0).
func NewLayerNorm(dim int) *LayerNorm {
	ln := &LayerNorm{Gamma: tensor.Param(1, dim), Beta: tensor.Param(1, dim), Eps: 1e-5}
	tensor.ConstantInit(ln.Gamma, 1)
	return ln
}

// Forward normalizes each row of x, fused on the NoGrad fast path.
func (ln *LayerNorm) Forward(x *tensor.Tensor) *tensor.Tensor {
	if tensor.NoGrad(x, ln.Gamma, ln.Beta) {
		out := tensor.InferenceResult(x.Rows, x.Cols, x)
		tensor.FusedAddLayerNormInto(out.Data, x.Data, nil, ln.Gamma.Data, ln.Beta.Data, x.Rows, x.Cols, ln.Eps)
		return out
	}
	return tensor.LayerNorm(x, ln.Gamma, ln.Beta, ln.Eps)
}

// Params implements Module.
func (ln *LayerNorm) Params() []*tensor.Tensor { return []*tensor.Tensor{ln.Gamma, ln.Beta} }

// Embedding maps integer ids to dense rows of a learnable table.
type Embedding struct {
	Table *tensor.Tensor // vocab × dim
}

// NewEmbedding creates an embedding table initialized N(0, 0.02²); with a
// nil rng it is shaped but holds no data (see param).
func NewEmbedding(vocab, dim int, rng *rand.Rand) *Embedding {
	e := &Embedding{Table: param(vocab, dim, rng)}
	if rng != nil {
		tensor.NormalInit(e.Table, 0.02, rng)
	}
	return e
}

// Forward gathers the rows for ids (len(ids) × dim).
func (e *Embedding) Forward(ids []int) *tensor.Tensor {
	return tensor.PickRows(e.Table, ids)
}

// Params implements Module.
func (e *Embedding) Params() []*tensor.Tensor { return []*tensor.Tensor{e.Table} }

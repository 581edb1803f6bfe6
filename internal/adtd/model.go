package adtd

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"sync/atomic"

	"repro/internal/metafeat"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/tokenizer"
)

// Model is the Asymmetric Double-Tower Detection network (§4, Fig. 3).
//
// The "two towers" are logical: both run the same shared Transformer blocks
// (§4.2.1, "the two towers use shared parameters for each layer"), differing
// only in their inputs and attention wiring. The metadata tower is plain
// self-attention over the serialized metadata; the content tower queries
// with content latents while its keys/values are the concatenation of the
// previous layer's metadata and content latents (§4.2.3).
type Model struct {
	Cfg   Config
	Types *TypeSpace
	Tok   *tokenizer.Tokenizer

	TokEmbed *nn.Embedding
	PosEmbed *nn.Embedding
	SegEmbed *nn.Embedding // 0 = table meta, 1 = column meta, 2 = content

	Blocks []*nn.TransformerBlock

	MetaCls *nn.MLPClassifier // input: H + NonTextualDim
	ContCls *nn.MLPClassifier // input: 2H + NonTextualDim

	MLMHead *nn.Linear // H → vocab, pre-training objective head

	// LossW is the learnable 1×2 weight vector w of the automatic
	// weighted loss (§4.4).
	LossW *tensor.Tensor

	// gen identifies the current weight state. It is drawn from a
	// process-global counter — unique across every live model, not just
	// monotonic within one — and redrawn on weight-mutating events
	// (grad-mode flips, checkpoint loads, feedback updates). Result-cache
	// keys embed it, so a bump orphans every memoized prediction in O(1) —
	// the same contract the fast-path weight packs follow via
	// invalidatePacks — and hot-swapping between models can never alias two
	// models' cached outputs.
	gen atomic.Uint64

	// training mirrors the parameters' requiresGrad state so SetEval/SetTrain
	// can skip the flag sweep when the mode is already right. That makes
	// re-entering eval mode write-free, which matters for hot-swap: swapping a
	// cached, already-frozen model back into serving must not race the
	// requests still running inference on it.
	training atomic.Bool

	enc Encoder
}

// generationCounter hands out process-unique weight generations. Starting
// at 1 keeps 0 meaning "never assigned".
var generationCounter atomic.Uint64

// nextGeneration returns a fresh process-unique generation.
func nextGeneration() uint64 { return generationCounter.Add(1) }

// Generation returns the model's weight generation. It changes whenever
// the weights may have changed in place; anything memoizing model outputs
// must key on it.
func (m *Model) Generation() uint64 { return m.gen.Load() }

// New creates a randomly initialized ADTD model.
func New(cfg Config, tok *tokenizer.Tokenizer, types *TypeSpace, seed int64) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	m := &Model{
		Cfg:      cfg,
		Types:    types,
		Tok:      tok,
		TokEmbed: nn.NewEmbedding(tok.VocabSize(), cfg.Hidden, rng),
		PosEmbed: nn.NewEmbedding(cfg.MaxSeq, cfg.Hidden, rng),
		SegEmbed: nn.NewEmbedding(3, cfg.Hidden, rng),
		MetaCls:  nn.NewMLPClassifier(cfg.Hidden+metafeat.NonTextualDim, cfg.MetaClassifierHidden, types.Len(), rng),
		ContCls:  nn.NewMLPClassifier(2*cfg.Hidden+metafeat.NonTextualDim, cfg.ContentClassifierHidden, types.Len(), rng),
		MLMHead:  nn.NewLinear(cfg.Hidden, tok.VocabSize(), rng),
		LossW:    tensor.Param(1, 2),
	}
	m.LossW.Fill(1)
	// Multi-label targets are extremely sparse (one or two positives among
	// |S| types), so the output layers start biased toward "not this type":
	// untrained columns then read as confidently type-less rather than as
	// uniformly uncertain, and training only has to raise the positives.
	m.MetaCls.Out.B.Fill(-3)
	m.ContCls.Out.B.Fill(-3)
	for i := 0; i < cfg.Layers; i++ {
		m.Blocks = append(m.Blocks, nn.NewTransformerBlock(cfg.Hidden, cfg.Heads, cfg.Intermediate, rng))
	}
	m.enc = Encoder{Tok: tok, Cfg: cfg}
	m.training.Store(true) // tensor.Param starts with gradients enabled
	m.gen.Store(nextGeneration())
	return m, nil
}

// Sibling creates a fresh, randomly initialized model with the same
// configuration, tokenizer, and type space — the right shape to Load any
// checkpoint this model could have Saved. The model registry uses it to
// materialize additional versions for zero-downtime hot-swap: the sibling
// gets its own weight generation and fast-path packs, so serving two
// versions side by side never aliases caches.
func (m *Model) Sibling() (*Model, error) {
	return New(m.Cfg, m.Tok, m.Types, 0)
}

// Encoder returns the input encoder bound to this model's tokenizer and
// configuration.
func (m *Model) Encoder() *Encoder { return &m.enc }

// Params returns all trainable parameters in a stable order.
func (m *Model) Params() []*tensor.Tensor {
	mods := []nn.Module{m.TokEmbed, m.PosEmbed, m.SegEmbed}
	for _, b := range m.Blocks {
		mods = append(mods, b)
	}
	mods = append(mods, m.MetaCls, m.ContCls, m.MLMHead)
	ps := nn.CollectParams(mods...)
	return append(ps, m.LossW)
}

// NumParams returns the total scalar parameter count.
func (m *Model) NumParams() int {
	n := 0
	for _, p := range m.Params() {
		n += len(p.Data)
	}
	return n
}

// SetEval freezes parameters: subsequent forwards build no autograd state,
// making inference cheaper and safe for concurrent use of the shared model.
func (m *Model) SetEval() { m.setGrad(false) }

// SetTrain re-enables gradient tracking.
func (m *Model) SetTrain() { m.setGrad(true) }

func (m *Model) setGrad(v bool) {
	if m.training.Swap(v) == v {
		return // already in the requested mode; no flags to flip
	}
	for _, p := range m.Params() {
		p.SetRequiresGrad(v)
	}
	// Weights may have been stepped since the fast path last packed them.
	m.invalidatePacks()
}

// Save serializes all parameters.
func (m *Model) Save(w io.Writer) error { return tensor.WriteTensors(w, m.Params()) }

// Load restores all parameters from a checkpoint written by Save. The load
// is atomic: tensor.ReadTensors validates the whole checkpoint in scratch
// buffers before installing anything, so a truncated or corrupt file
// returns an error with the live weights — and therefore serving —
// untouched, and the weight generation is only redrawn on success.
func (m *Model) Load(r io.Reader) error {
	if err := tensor.ReadTensors(r, m.Params()); err != nil {
		return err
	}
	m.invalidatePacks()
	return nil
}

// embed builds token+position+segment embeddings for a sequence.
func (m *Model) embed(ids, segments []int) *tensor.Tensor {
	pos := make([]int, len(ids))
	for i := range pos {
		p := i
		if p >= m.Cfg.MaxSeq {
			p = m.Cfg.MaxSeq - 1
		}
		pos[i] = p
	}
	e := tensor.Add(m.TokEmbed.Forward(ids), m.PosEmbed.Forward(pos))
	return tensor.Add(e, m.SegEmbed.Forward(segments))
}

// MetaEncoding carries the per-layer metadata latents Encodeᵢ^{Mᶜₜ} for one
// table chunk — exactly what the latent cache stores (§4.2.2): layer 0 is
// the embedding, layer i the output of the i-th Transformer block.
type MetaEncoding struct {
	Layers []*tensor.Tensor
	In     *MetaInput
}

// Final returns the last layer's latents.
func (e *MetaEncoding) Final() *tensor.Tensor { return e.Layers[len(e.Layers)-1] }

// Detach returns a graph-free view sharing the layers' buffers. The view
// must not outlive a Release/ReleaseGraph of the producing graph; use
// CloneDetach for a copy that does.
func (e *MetaEncoding) Detach() *MetaEncoding {
	out := &MetaEncoding{In: e.In}
	for _, l := range e.Layers {
		out.Layers = append(out.Layers, l.Detach())
	}
	return out
}

// CloneDetach returns a graph-free deep copy whose buffers are independent
// of the producing graph, so it survives Release of the original encoding.
// This is what the latent cache stores.
func (e *MetaEncoding) CloneDetach() *MetaEncoding {
	out := &MetaEncoding{In: e.In}
	for _, l := range e.Layers {
		out.Layers = append(out.Layers, l.Clone())
	}
	return out
}

// Release returns the encoding's graph buffers to the tensor arena once the
// latents have been consumed (classified and/or deep-copied into the cache).
// On a detached or cloned encoding whose layers are graph leaves this is a
// no-op apart from clearing the layer slice.
func (e *MetaEncoding) Release() {
	if len(e.Layers) == 0 {
		return
	}
	tensor.ReleaseGraph(e.Final())
	e.Layers = nil
}

// EncodeMetadata runs the metadata tower (§4.2.2) for inference: L layers
// of self-attention over the metadata sequence, fused in one workspace,
// returning every layer's latents so P2 can reuse them. Like every
// inference call (PredictMeta, PredictContentBatch) it wants frozen tower
// weights and panics on a model in train mode; training encodes through
// encodeMetadataGraph.
func (m *Model) EncodeMetadata(in *MetaInput) *MetaEncoding {
	ws := tensor.AcquireWorkspace()
	enc := m.encodeMetadataWS(ws, in)
	tensor.ReleaseWorkspace(ws)
	return enc
}

// encodeMetadataGraph is the training encode: EncodeMetadata in the
// composed ops, recording the autograd graph when the weights require grad.
func (m *Model) encodeMetadataGraph(in *MetaInput) *MetaEncoding {
	enc := &MetaEncoding{In: in}
	x := m.embed(in.IDs, in.Segments)
	enc.Layers = append(enc.Layers, x)
	for _, b := range m.Blocks {
		x = b.SelfForward(x, nil)
		enc.Layers = append(enc.Layers, x)
	}
	return enc
}

// MetaLogits applies the metadata classifier f₁ (§4.3) to every column of
// an encoded chunk: Classify_meta(Encode_L^{Mᶜₜ} ⊕ Mᶜₙ). The column's
// latent representation is the mean over its metadata token span. It is a
// training op; PredictMeta is the inference call.
func (m *Model) MetaLogits(enc *MetaEncoding) *tensor.Tensor {
	pooled := poolSpans(enc.Final(), enc.In.ColSpans)
	return m.MetaCls.Forward(tensor.ConcatCols(pooled, tensor.FromRows(enc.In.NonTextual)))
}

// poolSpans mean-pools rows of x over each [start, end) span.
func poolSpans(x *tensor.Tensor, spans [][2]int) *tensor.Tensor {
	rows := make([]*tensor.Tensor, len(spans))
	for i, sp := range spans {
		rows[i] = tensor.MeanRows(tensor.SliceRows(x, sp[0], sp[1]))
	}
	return tensor.ConcatRows(rows...)
}

// EncodeContent runs the content tower (§4.2.3). Each layer queries with the
// previous content latents while attending over [metadata ⊕ content]
// latents of the previous layer; the metadata latents come from menc, which
// may be a cached encoding. The attention mask lets a cell attend to all
// metadata positions but only to content positions of its own column (§6.4).
// It is a training op; PredictContentBatch is the inference call.
func (m *Model) EncodeContent(menc *MetaEncoding, in *ContentInput) *tensor.Tensor {
	m.checkLatents(menc)
	segs := make([]int, len(in.IDs))
	for i := range segs {
		segs[i] = 2
	}
	content := m.embed(in.IDs, segs)
	if m.Cfg.SymmetricContent {
		// Ablation: plain self-attention over content, no metadata K/V.
		mask := contentMask(nil, []*ContentInput{in})
		for _, b := range m.Blocks {
			content = b.SelfForward(content, mask)
		}
		return content
	}
	mask := contentMask([]*MetaEncoding{menc}, []*ContentInput{in})
	for i, b := range m.Blocks {
		kv := tensor.ConcatRows(menc.Layers[i], content)
		content = b.Forward(content, kv, mask)
	}
	return content
}

// checkLatents panics descriptively when a metadata encoding does not carry
// one latent per layer plus the embedding — a stale or foreign cache entry —
// instead of letting the content tower index out of range deep in nn.
func (m *Model) checkLatents(menc *MetaEncoding) {
	if len(menc.Layers) != m.Cfg.Layers+1 {
		panic(fmt.Sprintf("adtd: metadata encoding has %d layers, model wants %d", len(menc.Layers)-1, m.Cfg.Layers))
	}
}

// ContentLogits applies the content classifier f₂ (§4.3) to the selected
// columns: Classify_cont(Encode_L^{Dᶜ} ⊕ Encode_L^{Mᶜₜ} ⊕ Mᶜₙ). A training
// op, like EncodeContent.
func (m *Model) ContentLogits(menc *MetaEncoding, in *ContentInput, content *tensor.Tensor) *tensor.Tensor {
	contentPooled := poolSpans(content, in.ColSpans)
	metaSpans := make([][2]int, len(in.Columns))
	nonTextual := make([][]float64, len(in.Columns))
	for slot, ci := range in.Columns {
		metaSpans[slot] = menc.In.ColSpans[ci]
		nonTextual[slot] = menc.In.NonTextual[ci]
	}
	metaPooled := poolSpans(menc.Final(), metaSpans)
	return m.ContCls.Forward(tensor.ConcatCols(contentPooled, metaPooled, tensor.FromRows(nonTextual)))
}

// Sigmoid converts a logits matrix into probabilities without touching the
// autograd graph (inference helper).
func Sigmoid(logits *tensor.Tensor) [][]float64 {
	out := make([][]float64, logits.Rows)
	for i := 0; i < logits.Rows; i++ {
		row := make([]float64, logits.Cols)
		for j, v := range logits.Row(i) {
			row[j] = 1 / (1 + tensor.Exp(-v))
		}
		out[i] = row
	}
	return out
}

// PredictMeta is the Phase-1 inference call: encode metadata and return the
// encoding (for caching) plus per-column type probabilities p_{c,s}. One
// warm workspace threads through the whole phase: encoder blocks, span
// pooling and the classifier head.
func (m *Model) PredictMeta(t *metafeat.TableInfo, includeStats bool) (*MetaEncoding, [][]float64) {
	defer observeMetaForward(time.Now())
	in := m.enc.BuildMetaInput(t, includeStats)
	ws := tensor.AcquireWorkspace()
	menc := m.encodeMetadataWS(ws, in)
	probs := Sigmoid(m.metaLogitsWS(ws, menc))
	tensor.ReleaseWorkspace(ws)
	return menc, probs
}

// ExtendTypes grows both classifier heads to cover newly registered
// semantic types (§8 future work). Existing class weights are preserved;
// fine-tuning on examples of the new types is the caller's responsibility.
func (m *Model) ExtendTypes(names []string, seed int64) {
	m.Types.Extend(names)
	if m.Types.Len() <= m.MetaCls.Classes() {
		return // every name was already known
	}
	rng := rand.New(rand.NewSource(seed))
	m.MetaCls.ExtendClasses(m.Types.Len(), rng)
	m.ContCls.ExtendClasses(m.Types.Len(), rng)
	// The classifier heads changed shape in place: redraw the generation so
	// memoized predictions (now the wrong width) age out.
	m.invalidatePacks()
}

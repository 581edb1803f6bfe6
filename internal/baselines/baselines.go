// Package baselines implements the two comparison systems of §6.2: TURL and
// Doduo, reproduced as single-phase content-based detectors. Both must scan
// every column's content to predict (which is what makes them intrusive and
// slow in the cloud setting), and both are Transformer encoders trained with
// the same fine-tuning recipe as ADTD. They differ in how they wire
// attention and in model size:
//
//   - TURL uses a model the same size as Taste's and restricts attention so
//     that each column's cells see the table-level metadata and their own
//     column's metadata/cells, but not other columns (§6.4: "TURL computes
//     the corresponding cross-attention by only considering the current
//     column's metadata").
//
//   - Doduo mixes column metadata into the value stream as plain tokens and
//     attends globally with no structural mask, using a larger encoder
//     (BERT-base-proportioned: more layers and wider hidden state).
//
// Neither consumes the non-textual metadata features Mᶜₙ — per §6.4, Taste
// "uses more abundant metadata than TURL and Doduo".
package baselines

import (
	"fmt"
	"io"
	"math/rand"
	"strings"

	"repro/internal/adtd"
	"repro/internal/corpus"
	"repro/internal/metafeat"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/tokenizer"
	"repro/internal/train"
)

// Variant selects the baseline architecture.
type Variant int

const (
	// TURL is the per-column-attention baseline, same size as Taste.
	TURL Variant = iota
	// Doduo is the metadata-in-values baseline with a larger encoder.
	Doduo
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	if v == TURL {
		return "TURL"
	}
	return "Doduo"
}

// Config sizes a baseline model.
type Config struct {
	Layers       int
	Heads        int
	MaxSeq       int
	Intermediate int
	Hidden       int
	ColTokens    int
	CellTokens   int
	ClsHidden    int
}

// TURLScale mirrors Taste's repro-scale encoder (the paper's TURL uses the
// same L=4/A=12/H=312 TinyBERT sizing as Taste).
func TURLScale() Config {
	return Config{Layers: 2, Heads: 4, MaxSeq: 768, Intermediate: 128, Hidden: 64, ColTokens: 6, CellTokens: 3, ClsHidden: 64}
}

// DoduoScale is proportionally larger, standing in for BERT-base
// (L=12/H=768/108M params vs. TinyBERT's 4/312/14.5M).
func DoduoScale() Config {
	return Config{Layers: 3, Heads: 4, MaxSeq: 768, Intermediate: 192, Hidden: 96, ColTokens: 6, CellTokens: 3, ClsHidden: 96}
}

// Model is a single-tower content-based detector.
type Model struct {
	Variant Variant
	Cfg     Config
	Types   *adtd.TypeSpace
	Tok     *tokenizer.Tokenizer

	TokEmbed *nn.Embedding
	PosEmbed *nn.Embedding
	Blocks   []*nn.TransformerBlock
	Cls      *nn.MLPClassifier
}

// New creates a randomly initialized baseline model.
func New(v Variant, cfg Config, tok *tokenizer.Tokenizer, types *adtd.TypeSpace, seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	m := &Model{
		Variant:  v,
		Cfg:      cfg,
		Types:    types,
		Tok:      tok,
		TokEmbed: nn.NewEmbedding(tok.VocabSize(), cfg.Hidden, rng),
		PosEmbed: nn.NewEmbedding(cfg.MaxSeq, cfg.Hidden, rng),
		Cls:      nn.NewMLPClassifier(cfg.Hidden, cfg.ClsHidden, types.Len(), rng),
	}
	// Sparse multi-label targets: start the output layer biased toward
	// "not this type" (same rationale as in the ADTD model).
	m.Cls.Out.B.Fill(-3)
	for i := 0; i < cfg.Layers; i++ {
		m.Blocks = append(m.Blocks, nn.NewTransformerBlock(cfg.Hidden, cfg.Heads, cfg.Intermediate, rng))
	}
	return m
}

// Params returns all trainable parameters.
func (m *Model) Params() []*tensor.Tensor {
	mods := []nn.Module{m.TokEmbed, m.PosEmbed}
	for _, b := range m.Blocks {
		mods = append(mods, b)
	}
	mods = append(mods, m.Cls)
	return nn.CollectParams(mods...)
}

// NumParams returns the scalar parameter count.
func (m *Model) NumParams() int {
	n := 0
	for _, p := range m.Params() {
		n += len(p.Data)
	}
	return n
}

// SetEval freezes parameters for concurrent inference.
func (m *Model) SetEval() { m.setGrad(false) }

// SetTrain re-enables gradient tracking.
func (m *Model) SetTrain() { m.setGrad(true) }

func (m *Model) setGrad(v bool) {
	for _, p := range m.Params() {
		p.SetRequiresGrad(v)
	}
}

// Save serializes all parameters.
func (m *Model) Save(w io.Writer) error { return tensor.WriteTensors(w, m.Params()) }

// Load restores parameters saved by Save.
func (m *Model) Load(r io.Reader) error { return tensor.ReadTensors(r, m.Params()) }

// input is a serialized table with per-column anchors and spans.
type input struct {
	ids     []int
	anchors []int
	spans   [][2]int // per-column [start, end) ranges, mean-pooled
}

// buildInput serializes one table. withContent=false blanks column content
// (the strict-privacy inference setting of Table 4). n is the number of
// non-empty cell values per column.
func (m *Model) buildInput(t *metafeat.TableInfo, n int, withContent bool) *input {
	in := &input{}
	in.ids = append(in.ids, m.Tok.MustID(tokenizer.TAB))
	in.ids = append(in.ids, capIDs(m.Tok.Encode(t.Name+" "+t.Comment), 10)...)
	for _, c := range t.Columns {
		start := len(in.ids)
		in.anchors = append(in.anchors, start)
		in.ids = append(in.ids, m.Tok.MustID(tokenizer.COL))
		meta := c.Name
		if c.Comment != "" {
			meta += " " + c.Comment
		}
		meta += " " + strings.ToLower(c.DataType)
		in.ids = append(in.ids, capIDs(m.Tok.Encode(meta), m.Cfg.ColTokens)...)
		if withContent {
			used := 0
			for _, v := range c.Values {
				if used >= n {
					break
				}
				if v == "" {
					continue
				}
				used++
				in.ids = append(in.ids, m.Tok.MustID(tokenizer.CLS), m.Tok.ID(adtd.LengthBucketToken(len(v))))
				in.ids = append(in.ids, capIDs(m.Tok.Encode(v), m.Cfg.CellTokens)...)
			}
		}
		in.spans = append(in.spans, [2]int{start, len(in.ids)})
	}
	if len(in.ids) > m.Cfg.MaxSeq {
		in.ids = in.ids[:m.Cfg.MaxSeq]
		var kept []int
		var keptSpans [][2]int
		for i, a := range in.anchors {
			if a < m.Cfg.MaxSeq {
				kept = append(kept, a)
				sp := in.spans[i]
				if sp[1] > m.Cfg.MaxSeq {
					sp[1] = m.Cfg.MaxSeq
				}
				keptSpans = append(keptSpans, sp)
			}
		}
		in.anchors = kept
		in.spans = keptSpans
	}
	return in
}

func capIDs(ids []int, max int) []int {
	if len(ids) > max {
		return ids[:max]
	}
	return ids
}

// keySpans states the TURL attention restriction as key spans: a position
// belonging to column c attends to the table-level prefix and to column c's
// own span; table-level positions attend everywhere. Doduo attends globally
// (nil).
func (m *Model) keySpans(in *input) []tensor.AttnSpan {
	if m.Variant == Doduo {
		return nil
	}
	L := len(in.ids)
	prefix := L
	if len(in.spans) > 0 {
		prefix = in.spans[0][0]
	}
	spans := []tensor.AttnSpan{{RowLo: 0, RowHi: prefix, A: [2]int{0, L}, B: [2]int{L, L}}}
	for _, sp := range in.spans {
		spans = append(spans, tensor.AttnSpan{RowLo: sp[0], RowHi: sp[1], A: [2]int{0, prefix}, B: sp})
	}
	return spans
}

// forward encodes the input and returns per-column logits.
func (m *Model) forward(in *input) *tensor.Tensor {
	pos := make([]int, len(in.ids))
	for i := range pos {
		p := i
		if p >= m.Cfg.MaxSeq {
			p = m.Cfg.MaxSeq - 1
		}
		pos[i] = p
	}
	x := tensor.Add(m.TokEmbed.Forward(in.ids), m.PosEmbed.Forward(pos))
	// ForwardWS falls back to the composed ops under the equivalent dense
	// mask when training.
	spans := m.keySpans(in)
	ws := tensor.AcquireWorkspace()
	for _, b := range m.Blocks {
		x = b.ForwardWS(ws, x, x, spans)
	}
	tensor.ReleaseWorkspace(ws)
	// Each column's representation is the mean over its token span.
	pooled := make([]*tensor.Tensor, len(in.spans))
	for i, sp := range in.spans {
		pooled[i] = tensor.MeanRows(tensor.SliceRows(x, sp[0], sp[1]))
	}
	return m.Cls.Forward(tensor.ConcatRows(pooled...))
}

// Predict returns per-column type probabilities. withContent=false runs the
// strict-privacy setting where content is blanked at inference (Table 4).
func (m *Model) Predict(t *metafeat.TableInfo, n int, withContent bool) [][]float64 {
	in := m.buildInput(t, n, withContent)
	logits := m.forward(in)
	return adtd.Sigmoid(logits)
}

// TrainConfig mirrors adtd.TrainConfig for the baselines.
type TrainConfig struct {
	Epochs int
	// Workers is the number of data-parallel gradient workers (≤0 → 1);
	// GradAccum accumulates chunks per worker into each optimizer step.
	Workers   int
	GradAccum int
	LR        float64
	// FinalLR, when positive, decays the learning rate exponentially from
	// LR to FinalLR across the epochs.
	FinalLR        float64
	PosWeight      float64
	WeightDecay    float64
	SplitThreshold int
	Cells          int
	Seed           int64
	Log            io.Writer
}

// DefaultTrainConfig returns the repro-scale baseline training settings.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 4, LR: 1e-3, PosWeight: 4, SplitThreshold: 20, Cells: 10, Seed: 1}
}

// chunk is one fine-tuning item: a table chunk plus per-column labels.
type chunk struct {
	info   *metafeat.TableInfo
	labels [][]string
}

// buildChunks splits labelled tables into training chunks.
func buildChunks(tables []*corpus.Table, splitThreshold int) []chunk {
	var chunks []chunk
	for _, t := range tables {
		info := metafeat.FromCorpusTable(t, false, 0)
		labelOf := make(map[*metafeat.ColumnInfo][]string, len(t.Columns))
		for i, c := range info.Columns {
			labelOf[c] = t.Columns[i].Labels
		}
		for _, part := range info.Split(splitThreshold) {
			ch := chunk{info: part}
			for _, c := range part.Columns {
				ch.labels = append(ch.labels, labelOf[c])
			}
			chunks = append(chunks, ch)
		}
	}
	return chunks
}

// chunkLoss builds the weighted BCE loss for one table chunk.
func (m *Model) chunkLoss(ch chunk, cells int, posWeight float64) *tensor.Tensor {
	in := m.buildInput(ch.info, cells, true)
	logits := m.forward(in)
	targets := make([][]float64, len(in.anchors))
	for i := range in.anchors {
		targets[i] = m.Types.Targets(ch.labels[i])
	}
	return tensor.WeightedBCEWithLogits(logits, tensor.FromRows(targets), posWeight)
}

// trainingReplica builds a worker-private model aliasing the canonical
// weights but owning its gradient state (see DESIGN.md §10).
func (m *Model) trainingReplica() *Model {
	r := New(m.Variant, m.Cfg, m.Tok, m.Types, 0)
	tensor.AliasData(r.Params(), m.Params())
	r.SetTrain()
	return r
}

// FineTune trains the baseline on labelled corpus tables (content included,
// as both baselines require). Returns the mean loss of the final epoch.
func FineTune(m *Model, tables []*corpus.Table, cfg TrainConfig) (float64, error) {
	if cfg.Epochs <= 0 {
		return 0, fmt.Errorf("baselines: Epochs must be positive")
	}
	if len(tables) == 0 {
		return 0, fmt.Errorf("baselines: no training tables")
	}
	if cfg.Cells <= 0 {
		cfg.Cells = 10
	}
	chunks := buildChunks(tables, cfg.SplitThreshold)
	m.SetTrain()
	defer m.SetEval()

	spec := train.Spec{
		Params: m.Params(),
		Items:  len(chunks),
		NewWorker: func(w int) (train.Worker, error) {
			mm := m
			if w > 0 {
				mm = m.trainingReplica()
			}
			return train.Worker{
				Params: mm.Params(),
				Step: func(items []int, rng *rand.Rand) *tensor.Tensor {
					return mm.chunkLoss(chunks[items[0]], cfg.Cells, cfg.PosWeight)
				},
			}, nil
		},
	}
	return train.Run(spec, train.Config{
		Epochs:      cfg.Epochs,
		Workers:     cfg.Workers,
		GradAccum:   cfg.GradAccum,
		Shuffle:     true,
		LR:          cfg.LR,
		FinalLR:     cfg.FinalLR,
		ClipNorm:    1,
		WeightDecay: cfg.WeightDecay,
		Seed:        cfg.Seed,
		Log:         cfg.Log,
		LogPrefix:   fmt.Sprintf("%s fine-tune", m.Variant),
	})
}

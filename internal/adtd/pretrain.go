package adtd

import (
	"fmt"
	"io"
	"math/rand"
	"strings"

	"repro/internal/corpus"
	"repro/internal/metafeat"
	"repro/internal/tensor"
	"repro/internal/tokenizer"
	"repro/internal/train"
)

// PretrainConfig controls Masked Language Model pre-training over a
// serialized table corpus (§4.2.1). The paper additionally uses Masked
// Entity Recovery, which requires the entity links of the real WikiTable
// dump; this reproduction uses MLM only (see DESIGN.md §1).
type PretrainConfig struct {
	// Steps is the number of MLM micro-batches (one table chunk per step).
	Steps int
	// Workers is the number of data-parallel gradient workers (≤0 → 1).
	Workers int
	// LR is the Adam learning rate.
	LR float64
	// MaskProb is the fraction of tokens replaced by [MASK].
	MaskProb float64
	// MaxLen truncates pre-training sequences.
	MaxLen int
	// Seed drives masking and table selection. Both are keyed by step index
	// (train.ItemRNG), so a step masks the same tokens no matter which
	// worker runs it.
	Seed int64
	// Log, when non-nil, receives periodic loss lines.
	Log io.Writer
}

// DefaultPretrainConfig returns the repro-scale pre-training configuration.
func DefaultPretrainConfig() PretrainConfig {
	return PretrainConfig{Steps: 300, LR: 1e-3, MaskProb: 0.15, MaxLen: 96, Seed: 1}
}

// Pretrain runs MLM over the given unlabeled tables. Each step serializes
// one table (metadata plus a few cell values), masks a fraction of tokens,
// and trains the shared encoder plus MLM head to recover them. It returns
// the mean MLM loss over the run (steps too short to mask are skipped).
func Pretrain(m *Model, tables []*corpus.Table, cfg PretrainConfig) (float64, error) {
	if len(tables) == 0 {
		return 0, fmt.Errorf("adtd: no pre-training tables")
	}
	if cfg.Steps <= 0 {
		return 0, fmt.Errorf("adtd: Steps must be positive")
	}
	m.SetTrain()
	defer m.SetEval()
	maskID := m.Tok.MustID(tokenizer.MASK)

	spec := train.Spec{
		Params: m.Params(),
		Items:  cfg.Steps,
		NewWorker: func(w int) (train.Worker, error) {
			mm := m
			if w > 0 {
				var err error
				if mm, err = m.trainingReplica(); err != nil {
					return train.Worker{}, err
				}
			}
			return train.Worker{
				Params: mm.Params(),
				Step: func(_ int, rng *rand.Rand) *tensor.Tensor {
					return mm.mlmStep(tables, cfg, rng, maskID)
				},
			}, nil
		},
	}
	return train.Run(spec, train.Config{
		Epochs:    1,
		Workers:   cfg.Workers,
		LR:        cfg.LR,
		ClipNorm:  1,
		Seed:      cfg.Seed,
		Log:       cfg.Log,
		LogPrefix: "adtd pretrain",
		LogEvery:  100,
	})
}

// mlmStep builds the MLM loss for one pre-training step: pick a table,
// serialize it, mask a fraction of tokens, and predict them back. Returns
// nil when the serialized table is too short to mask meaningfully.
func (m *Model) mlmStep(tables []*corpus.Table, cfg PretrainConfig, rng *rand.Rand, maskID int) *tensor.Tensor {
	t := tables[rng.Intn(len(tables))]
	ids, segs := m.serializeForMLM(t, cfg.MaxLen)
	if len(ids) < 4 {
		return nil
	}
	masked := append([]int(nil), ids...)
	targets := make([]int, len(ids))
	anyMasked := false
	for i := range targets {
		targets[i] = -1
		if rng.Float64() < cfg.MaskProb {
			targets[i] = ids[i]
			masked[i] = maskID
			anyMasked = true
		}
	}
	if !anyMasked {
		i := rng.Intn(len(ids))
		targets[i] = ids[i]
		masked[i] = maskID
	}
	x := m.embed(masked, segs)
	for _, b := range m.Blocks {
		x = b.SelfForward(x, nil)
	}
	return tensor.CrossEntropyRows(m.MLMHead.Forward(x), targets)
}

// serializeForMLM flattens a table into one token stream: table metadata,
// column metadata, then one sample cell per column.
func (m *Model) serializeForMLM(t *corpus.Table, maxLen int) (ids, segs []int) {
	info := metafeat.FromCorpusTable(t, false, 0)
	min := m.enc.BuildMetaInput(info, false)
	ids = append(ids, min.IDs...)
	segs = append(segs, min.Segments...)
	for _, c := range t.Columns {
		for _, v := range c.Values {
			if v == "" {
				continue
			}
			cell := m.Tok.Encode(v)
			if len(cell) > m.Cfg.CellTokens {
				cell = cell[:m.Cfg.CellTokens]
			}
			ids = append(ids, cell...)
			for range cell {
				segs = append(segs, 2)
			}
			break
		}
	}
	if len(ids) > maxLen {
		ids, segs = ids[:maxLen], segs[:maxLen]
	}
	return ids, segs
}

// BuildVocabulary constructs a tokenizer vocabulary from a training corpus:
// all metadata text, a sample of cell values, the length-bucket tokens, and
// the semantic type names (useful for downstream tooling). maxTerms caps
// whole-word entries.
func BuildVocabulary(tables []*corpus.Table, typeNames []string, maxTerms int) *tokenizer.Tokenizer {
	b := tokenizer.NewBuilder()
	for _, tok := range LengthBucketTokens() {
		// Force length buckets above any frequency threshold.
		for i := 0; i < 100; i++ {
			b.Add(tok)
		}
	}
	for _, n := range typeNames {
		b.Add(strings.ReplaceAll(n, "_", " "))
	}
	for _, t := range tables {
		b.Add(t.Name)
		b.Add(t.Comment)
		for _, c := range t.Columns {
			b.Add(c.Name)
			b.Add(c.Comment)
			b.Add(c.SQLType)
			// Sample a handful of values per column for subword coverage.
			for i, v := range c.Values {
				if i >= 5 {
					break
				}
				b.Add(v)
			}
		}
	}
	return b.Build(maxTerms, 2)
}

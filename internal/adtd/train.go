package adtd

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/corpus"
	"repro/internal/metafeat"
	"repro/internal/tensor"
	"repro/internal/train"
)

// TrainConfig controls fine-tuning (§6.1.3: on-premise training over the
// labelled training split).
type TrainConfig struct {
	// Epochs over the training set (paper: 20; repro default: 4).
	Epochs int
	// Workers is the number of data-parallel gradient workers (≤0 → 1).
	// See DESIGN.md §10 for the determinism contract.
	Workers int
	// LR is the initial Adam learning rate.
	LR float64
	// FinalLR, when positive, decays the learning rate exponentially from
	// LR to FinalLR across the epochs.
	FinalLR float64
	// PosWeight up-weights positive (column, type) pairs in the BCE loss to
	// counter the extreme label sparsity of multi-label detection.
	PosWeight float64
	// WeightDecay is the AdamW decoupled weight decay (0 disables).
	WeightDecay float64
	// WithStats attaches ANALYZE-equivalent statistics to training tables
	// (trains the "Taste with histogram" variant).
	WithStats bool
	// SplitThreshold is the column split threshold l (§6.1.2).
	SplitThreshold int
	// Cells is the number of non-empty cell values per column (n).
	Cells int
	// ContentColumnsPerChunk caps how many columns join the content task
	// per chunk per epoch (sampled), bounding the content tower's
	// sequence length on wide tables. ≤0 means all columns.
	ContentColumnsPerChunk int
	// UseAutoWeightedLoss selects §4.4's automatic weighting (true, the
	// default configuration) or a fixed 50/50 combination (the ablation).
	UseAutoWeightedLoss bool
	// Seed drives shuffling and column sampling. Sampling is keyed by
	// chunk identity (train.ItemRNG), so results are independent of chunk
	// processing order.
	Seed int64
	// Log, when non-nil, receives one line per epoch.
	Log io.Writer
}

// DefaultTrainConfig returns the repro-scale training configuration.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Epochs:                 4,
		LR:                     1e-3,
		PosWeight:              4,
		SplitThreshold:         20,
		Cells:                  10,
		ContentColumnsPerChunk: 6,
		UseAutoWeightedLoss:    true,
		Seed:                   1,
	}
}

// TunedTrainConfig is the fine-tuning recipe the experiment suite tuned for
// Taste at repro scale (DESIGN.md §5): Adam from LR 1.5e-3 decayed to 3e-4,
// positive-class weight 6, weight decay 1e-4, 6 cells per column and 4
// content columns per chunk. tastetrain and tasted -train train with it too.
func TunedTrainConfig(epochs int, withStats bool) TrainConfig {
	cfg := DefaultTrainConfig()
	cfg.Epochs = epochs
	cfg.LR, cfg.FinalLR = 1.5e-3, 3e-4
	cfg.PosWeight = 6
	cfg.WeightDecay = 1e-4
	cfg.Cells = 6
	cfg.ContentColumnsPerChunk = 4
	cfg.WithStats = withStats
	return cfg
}

// trainChunk is one fine-tuning item: a table chunk plus per-column labels.
type trainChunk struct {
	info   *metafeat.TableInfo
	labels [][]string
}

// buildTrainChunks splits labelled tables into training chunks
// (§6.1.2 column splitting), carrying each column's labels along.
func buildTrainChunks(tables []*corpus.Table, withStats bool, splitThreshold int) []trainChunk {
	var chunks []trainChunk
	for _, t := range tables {
		info := metafeat.FromCorpusTable(t, withStats, 8)
		labelOf := make(map[*metafeat.ColumnInfo][]string, len(t.Columns))
		for i, c := range info.Columns {
			labelOf[c] = t.Columns[i].Labels
		}
		for _, part := range info.Split(splitThreshold) {
			ch := trainChunk{info: part}
			for _, c := range part.Columns {
				ch.labels = append(ch.labels, labelOf[c])
			}
			chunks = append(chunks, ch)
		}
	}
	return chunks
}

// trainingReplica builds a model with m's configuration, tokenizer and type
// space whose parameters alias m's weights (tensor.AliasData): each
// parameter tensor, its gradient state and its grad flag are its own, its
// Data is m's buffer. A training worker reads the shared weights during a
// group of items and writes only its own gradients. It starts in train
// mode. Its weights are never allocated: build leaves them without data
// and AliasData points them at m's.
func (m *Model) trainingReplica() (*Model, error) {
	r, err := build(m.Cfg, m.Tok, m.Types, nil)
	if err != nil {
		return nil, err
	}
	tensor.AliasData(r.Params(), m.Params())
	return r, nil
}

// FineTune trains the full ADTD model (both towers jointly, multi-task) on
// labelled corpus tables. It returns the mean total loss of the final epoch.
func FineTune(m *Model, tables []*corpus.Table, cfg TrainConfig) (float64, error) {
	if cfg.Epochs <= 0 {
		return 0, fmt.Errorf("adtd: Epochs must be positive")
	}
	if cfg.Cells <= 0 {
		cfg.Cells = 10
	}
	chunks := buildTrainChunks(tables, cfg.WithStats, cfg.SplitThreshold)
	if len(chunks) == 0 {
		return 0, fmt.Errorf("adtd: no training tables")
	}
	m.SetTrain()
	defer m.SetEval()

	spec := train.Spec{
		Params: m.Params(),
		Items:  len(chunks),
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
				Step: func(item int, rng *rand.Rand) *tensor.Tensor {
					ch := chunks[item]
					return mm.trainStep(ch.info, ch.labels, cfg, rng)
				},
			}, nil
		},
	}
	return train.Run(spec, train.Config{
		Epochs:      cfg.Epochs,
		Workers:     cfg.Workers,
		Shuffle:     true,
		LR:          cfg.LR,
		FinalLR:     cfg.FinalLR,
		ClipNorm:    1,
		WeightDecay: cfg.WeightDecay,
		Seed:        cfg.Seed,
		Log:         cfg.Log,
		LogPrefix:   "adtd fine-tune",
	})
}

// trainStep builds the multi-task loss for one table chunk.
func (m *Model) trainStep(info *metafeat.TableInfo, labels [][]string, cfg TrainConfig, rng *rand.Rand) *tensor.Tensor {
	targets := make([][]float64, len(info.Columns))
	for i := range info.Columns {
		targets[i] = m.Types.Targets(labels[i])
	}
	targetT := tensor.FromRows(targets)

	// Task 1: metadata tower.
	menc := m.encodeMetadataGraph(m.enc.BuildMetaInput(info, cfg.WithStats))
	metaLoss := tensor.WeightedBCEWithLogits(m.MetaLogits(menc), targetT, cfg.PosWeight)

	// Task 2: content tower over a (possibly sampled) subset of columns.
	cols := make([]int, len(info.Columns))
	for i := range cols {
		cols[i] = i
	}
	if cfg.ContentColumnsPerChunk > 0 && len(cols) > cfg.ContentColumnsPerChunk {
		rng.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
		cols = cols[:cfg.ContentColumnsPerChunk]
	}
	cin := m.enc.BuildContentInput(info, cols, cfg.Cells)
	content := m.EncodeContent(menc, cin)
	contentTargets := make([][]float64, len(cols))
	for slot, ci := range cols {
		contentTargets[slot] = targets[ci]
	}
	contLoss := tensor.WeightedBCEWithLogits(
		m.ContentLogits(menc, cin, content),
		tensor.FromRows(contentTargets),
		cfg.PosWeight,
	)

	if cfg.UseAutoWeightedLoss {
		return AutoWeightedLoss(m.LossW, metaLoss, contLoss)
	}
	return FixedWeightedLoss(metaLoss, contLoss)
}

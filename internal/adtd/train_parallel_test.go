package adtd

import (
	"math"
	"testing"

	"repro/internal/corpus"
	"repro/internal/tensor"
	"repro/internal/tokenizer"
	"repro/internal/train"
)

// twinModels builds two bit-identical tiny models over the same dataset.
func twinModels(t *testing.T) (*Model, *Model, *corpus.Dataset) {
	t.Helper()
	ds := corpus.Generate(corpus.DefaultRegistry(), corpus.WikiTableProfile(8), 1)
	tok := BuildVocabulary(ds.Train, ds.Registry.Names(), 2000)
	types := NewTypeSpace(ds.Registry.Names())
	cfg := ReproScale()
	cfg.Layers, cfg.Hidden, cfg.Heads, cfg.Intermediate = 2, 32, 2, 48
	cfg.MetaClassifierHidden, cfg.ContentClassifierHidden = 32, 32
	a, err := New(cfg, tok, types, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg, tok, types, 7)
	if err != nil {
		t.Fatal(err)
	}
	return a, b, ds
}

func requireSameParams(t *testing.T, a, b *Model, what string) {
	t.Helper()
	ap, bp := a.Params(), b.Params()
	for i := range ap {
		for j := range ap[i].Data {
			if ap[i].Data[j] != bp[i].Data[j] {
				t.Fatalf("%s: param %d elem %d differs: %v vs %v", what, i, j, ap[i].Data[j], bp[i].Data[j])
			}
		}
	}
}

func parallelTrainConfig() TrainConfig {
	cfg := DefaultTrainConfig()
	cfg.Epochs = 2
	cfg.Cells = 4
	cfg.ContentColumnsPerChunk = 2 // force rng-driven column sampling
	cfg.FinalLR = 2e-4
	cfg.WeightDecay = 1e-4
	cfg.Seed = 5
	return cfg
}

// TestFineTuneWorkers1BitExactVsSerial pins the trainer's serial-equivalence
// contract: Workers=1 must replay exactly the classic loop (zero → loss →
// backward → step per chunk) under the order-independent RNG scheme.
func TestFineTuneWorkers1BitExactVsSerial(t *testing.T) {
	serial, trained, ds := twinModels(t)
	cfg := parallelTrainConfig()

	// Test-local serial reference.
	chunks := buildTrainChunks(ds.Train, cfg.WithStats, cfg.SplitThreshold)
	if len(chunks) < 2 {
		t.Fatalf("need ≥2 chunks, got %d", len(chunks))
	}
	serial.SetTrain()
	opt := tensor.NewAdam(serial.Params(), cfg.LR)
	opt.ClipNorm = 1
	opt.WeightDecay = cfg.WeightDecay
	refLoss := 0.0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		opt.LR = train.EpochLR(cfg.LR, cfg.FinalLR, epoch, cfg.Epochs)
		total := 0.0
		for _, item := range train.EpochPerm(cfg.Seed, epoch, len(chunks)) {
			ch := chunks[item]
			tensor.ZeroGrads(serial.Params())
			loss := serial.trainStep(ch.info, ch.labels, cfg, train.ItemRNG(cfg.Seed, epoch, item))
			loss.Backward()
			opt.Step()
			total += loss.Item()
			tensor.ReleaseGraph(loss)
		}
		refLoss = total / float64(len(chunks))
	}
	serial.SetEval()

	cfg.Workers = 1
	gotLoss, err := FineTune(trained, ds.Train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if gotLoss != refLoss {
		t.Fatalf("final-epoch loss %v vs serial %v", gotLoss, refLoss)
	}
	requireSameParams(t, trained, serial, "FineTune workers=1 vs serial")
}

// TestFineTuneOrderInvariance is the satellite-1 regression: per-chunk
// column sampling is keyed by chunk identity, so the loss of each chunk must
// not depend on the order chunks are processed in.
func TestFineTuneOrderInvariance(t *testing.T) {
	m, _, ds := twinModels(t)
	cfg := parallelTrainConfig()
	chunks := buildTrainChunks(ds.Train, cfg.WithStats, cfg.SplitThreshold)
	m.SetTrain()
	defer m.SetEval()

	lossAt := func(item int) float64 {
		ch := chunks[item]
		loss := m.trainStep(ch.info, ch.labels, cfg, train.ItemRNG(cfg.Seed, 0, item))
		v := loss.Item()
		tensor.ReleaseGraph(loss)
		return v
	}
	forward := make([]float64, len(chunks))
	for i := range chunks {
		forward[i] = lossAt(i)
	}
	for i := len(chunks) - 1; i >= 0; i-- {
		if got := lossAt(i); got != forward[i] {
			t.Fatalf("chunk %d loss depends on processing order: %v vs %v", i, got, forward[i])
		}
	}
}

// TestFineTuneMultiWorkerDeterministic runs a multi-worker fine-tune twice
// (also exercised under -race) and requires identical final parameters.
func TestFineTuneMultiWorkerDeterministic(t *testing.T) {
	a, b, ds := twinModels(t)
	cfg := parallelTrainConfig()
	cfg.Epochs = 1
	cfg.Workers = 3
	lossA, err := FineTune(a, ds.Train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lossB, err := FineTune(b, ds.Train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if lossA != lossB || math.IsNaN(lossA) {
		t.Fatalf("multi-worker losses differ or NaN: %v vs %v", lossA, lossB)
	}
	requireSameParams(t, a, b, "FineTune identical (seed,workers) runs")
}

// TestPretrainWorkers1BitExactVsSerial is the same contract for the MLM
// pre-training loop (Steps items, no shuffling, nil-loss steps skipped).
func TestPretrainWorkers1BitExactVsSerial(t *testing.T) {
	serial, trained, ds := twinModels(t)
	cfg := DefaultPretrainConfig()
	cfg.Steps = 24
	cfg.MaxLen = 48
	cfg.Seed = 3

	serial.SetTrain()
	maskID := serial.Tok.MustID(tokenizer.MASK)
	opt := tensor.NewAdam(serial.Params(), cfg.LR)
	opt.ClipNorm = 1
	for step := 0; step < cfg.Steps; step++ {
		loss := serial.mlmStep(ds.Train, cfg, train.ItemRNG(cfg.Seed, 0, step), maskID)
		if loss == nil {
			continue
		}
		tensor.ZeroGrads(serial.Params())
		loss.Backward()
		opt.Step()
		tensor.ReleaseGraph(loss)
	}
	serial.SetEval()

	cfg.Workers = 1
	if _, err := Pretrain(trained, ds.Train, cfg); err != nil {
		t.Fatal(err)
	}
	requireSameParams(t, trained, serial, "Pretrain workers=1 vs serial")
}

// TestPretrainMultiWorkerRuns smoke-tests a multi-worker MLM run (exercised
// under -race by make race).
func TestPretrainMultiWorkerRuns(t *testing.T) {
	m, _, ds := twinModels(t)
	cfg := DefaultPretrainConfig()
	cfg.Steps = 16
	cfg.MaxLen = 48
	cfg.Workers = 3
	loss, err := Pretrain(m, ds.Train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(loss) {
		t.Fatal("NaN loss")
	}
}

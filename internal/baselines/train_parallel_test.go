package baselines

import (
	"math"
	"testing"

	"repro/internal/adtd"
	"repro/internal/corpus"
	"repro/internal/tensor"
	"repro/internal/train"
)

func twinModels(t *testing.T) (*Model, *Model, *corpus.Dataset) {
	t.Helper()
	ds := corpus.Generate(corpus.DefaultRegistry(), corpus.WikiTableProfile(6), 1)
	tok := adtd.BuildVocabulary(ds.Train, ds.Registry.Names(), 2000)
	types := adtd.NewTypeSpace(ds.Registry.Names())
	cfg := TURLScale()
	cfg.Layers, cfg.Hidden, cfg.Heads, cfg.Intermediate = 1, 32, 2, 48
	cfg.ClsHidden = 32
	return New(TURL, cfg, tok, types, 5), New(TURL, cfg, tok, types, 5), ds
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

// TestFineTuneWorkers1BitExactVsSerial pins the serial-equivalence contract
// for the baseline fine-tuning loop.
func TestFineTuneWorkers1BitExactVsSerial(t *testing.T) {
	serial, trained, ds := twinModels(t)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 2
	cfg.Cells = 4
	cfg.FinalLR = 2e-4
	cfg.WeightDecay = 1e-4
	cfg.Seed = 13

	chunks := buildChunks(ds.Train, cfg.SplitThreshold)
	if len(chunks) < 2 {
		t.Fatalf("need ≥2 chunks, got %d", len(chunks))
	}
	serial.SetTrain()
	opt := tensor.NewAdam(serial.Params(), cfg.LR)
	opt.ClipNorm = 1
	opt.WeightDecay = cfg.WeightDecay
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		opt.LR = train.EpochLR(cfg.LR, cfg.FinalLR, epoch, cfg.Epochs)
		for _, item := range train.EpochPerm(cfg.Seed, epoch, len(chunks)) {
			tensor.ZeroGrads(serial.Params())
			loss := serial.chunkLoss(chunks[item], cfg.Cells, cfg.PosWeight)
			loss.Backward()
			opt.Step()
			tensor.ReleaseGraph(loss)
		}
	}
	serial.SetEval()

	cfg.Workers = 1
	if _, err := FineTune(trained, ds.Train, cfg); err != nil {
		t.Fatal(err)
	}
	requireSameParams(t, trained, serial, "baselines workers=1 vs serial")
}

// TestFineTuneMultiWorkerDeterministic runs a multi-worker fine-tune twice
// (also exercised under -race) and requires identical final parameters.
func TestFineTuneMultiWorkerDeterministic(t *testing.T) {
	a, b, ds := twinModels(t)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 1
	cfg.Cells = 4
	cfg.Workers = 2
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
	requireSameParams(t, a, b, "baselines identical (seed,workers) runs")
}

// TestTrainingReplicaAliasesWeights: a worker's replica shares every
// parameter's backing array with the canonical model, draws nothing, and
// keeps its gradients to itself.
func TestTrainingReplicaAliasesWeights(t *testing.T) {
	m, _, _ := twinModels(t)
	r := m.trainingReplica()
	src, dst := m.Params(), r.Params()
	if len(dst) != len(src) {
		t.Fatalf("replica has %d parameters, model %d", len(dst), len(src))
	}
	for i := range dst {
		if &dst[i].Data[0] != &src[i].Data[0] || len(dst[i].Data) != len(src[i].Data) {
			t.Fatalf("parameter %d does not share its source's backing array", i)
		}
		if dst[i] == src[i] {
			t.Fatalf("parameter %d is the source's tensor, not a replica's", i)
		}
	}
}

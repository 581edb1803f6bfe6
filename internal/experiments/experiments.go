// Package experiments reproduces every table and figure of the paper's
// evaluation (§6). A Suite lazily generates the two corpora, trains the
// Taste/TURL/Doduo models (with on-disk checkpoint caching so repeated runs
// skip training), and exposes one runner per experiment. See DESIGN.md §3
// for the experiment index and EXPERIMENTS.md for paper-vs-measured values.
package experiments

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/adtd"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/simdb"
	"repro/internal/train"
)

// Dataset names used throughout the suite.
const (
	Wiki = "wikitable"
	Git  = "gittables"
)

// Config scales the experiment suite.
type Config struct {
	// WikiTables and GitTables size the two corpora.
	WikiTables int
	GitTables  int
	// Seed drives corpus generation and model initialization.
	Seed int64
	// TasteEpochs / BaselineEpochs / TunedEpochs bound fine-tuning for the
	// main Taste models, the baselines, and the Fig-6/ablation retrains.
	TasteEpochs    int
	BaselineEpochs int
	TunedEpochs    int
	// PretrainSteps runs MLM pre-training before fine-tuning (0 disables).
	PretrainSteps int
	// ValSelect keeps the checkpoint with the best validation F1 rather
	// than the last epoch (§6.1.1 provides validation splits).
	ValSelect bool
	// LatencyScale scales the simulated database latency (1 = the paper's
	// 5 ms-RTT testbed).
	LatencyScale float64
	// Repeats is the number of timing runs averaged per variant (paper: 10).
	Repeats int
	// CheckpointDir caches trained models on disk ("" disables).
	CheckpointDir string
	// Log receives progress lines (nil silences).
	Log io.Writer
}

// DefaultConfig is the full-scale configuration used for EXPERIMENTS.md.
func DefaultConfig() Config {
	return Config{
		WikiTables:     600,
		GitTables:      300,
		Seed:           1,
		TasteEpochs:    16,
		BaselineEpochs: 10,
		TunedEpochs:    6,
		PretrainSteps:  200,
		ValSelect:      true,
		LatencyScale:   1.0,
		Repeats:        3,
		CheckpointDir:  "artifacts",
	}
}

// QuickConfig is a minutes-scale configuration for smoke tests.
func QuickConfig() Config {
	return Config{
		WikiTables:     80,
		GitTables:      60,
		Seed:           1,
		TasteEpochs:    2,
		BaselineEpochs: 2,
		TunedEpochs:    1,
		ValSelect:      false,
		LatencyScale:   0.02,
		Repeats:        1,
	}
}

// Suite owns the datasets and trained models for all experiments. All
// methods are safe for sequential use; model construction is memoized.
type Suite struct {
	Cfg Config

	mu       sync.Mutex
	datasets map[string]*corpus.Dataset
	taste    map[string]*adtd.Model
	base     map[string]*baselines.Model
	mainRuns map[string][]*RunResult
}

// NewSuite creates a suite for the configuration.
func NewSuite(cfg Config) *Suite {
	return &Suite{
		Cfg:      cfg,
		datasets: make(map[string]*corpus.Dataset),
		taste:    make(map[string]*adtd.Model),
		base:     make(map[string]*baselines.Model),
		mainRuns: make(map[string][]*RunResult),
	}
}

func (s *Suite) logf(format string, args ...interface{}) {
	if s.Cfg.Log != nil {
		fmt.Fprintf(s.Cfg.Log, format+"\n", args...)
	}
}

// Dataset returns the named corpus (Wiki or Git), generating it on demand.
func (s *Suite) Dataset(name string) *corpus.Dataset {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.datasetLocked(name)
}

func (s *Suite) datasetLocked(name string) *corpus.Dataset {
	if ds, ok := s.datasets[name]; ok {
		return ds
	}
	var ds *corpus.Dataset
	switch name {
	case Wiki:
		ds = corpus.Generate(corpus.DefaultRegistry(), corpus.WikiTableProfile(s.Cfg.WikiTables), s.Cfg.Seed)
	case Git:
		ds = corpus.Generate(corpus.DefaultRegistry(), corpus.GitTablesProfile(s.Cfg.GitTables), s.Cfg.Seed)
	default:
		panic("experiments: unknown dataset " + name)
	}
	s.datasets[name] = ds
	return ds
}

// TasteModel returns the trained ADTD model for a dataset, optionally the
// histogram variant, training (or loading a checkpoint) on first use.
func (s *Suite) TasteModel(dsName string, hist bool) *adtd.Model {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := fmt.Sprintf("taste-%s-hist=%v", dsName, hist)
	if m, ok := s.taste[key]; ok {
		return m
	}
	ds := s.datasetLocked(dsName)
	m := s.buildTaste(key, ds, adtd.TunedTrainConfig(s.Cfg.TasteEpochs, hist), hist)
	s.taste[key] = m
	return m
}

// tunedTasteModel trains a Taste model on an arbitrary (tuned) dataset with
// the reduced epoch budget; used by Fig 6 and the ablations.
func (s *Suite) tunedTasteModel(key string, ds *corpus.Dataset, mutate func(*adtd.Config, *adtd.TrainConfig)) *adtd.Model {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m, ok := s.taste[key]; ok {
		return m
	}
	tcfg := adtd.TunedTrainConfig(s.Cfg.TunedEpochs, false)
	mcfg := adtd.ReproScale()
	if mutate != nil {
		mutate(&mcfg, &tcfg)
	}
	// Tuned/ablation retrains skip MLM pre-training: it mostly benefits the
	// early epochs and the sweeps only compare configurations against each
	// other.
	m := s.buildTasteWith(key, ds, mcfg, tcfg, tcfg.WithStats, false)
	s.taste[key] = m
	return m
}

func (s *Suite) buildTaste(key string, ds *corpus.Dataset, tcfg adtd.TrainConfig, hist bool) *adtd.Model {
	return s.buildTasteWith(key, ds, adtd.ReproScale(), tcfg, hist, true)
}

func (s *Suite) buildTasteWith(key string, ds *corpus.Dataset, mcfg adtd.Config, tcfg adtd.TrainConfig, hist, pretrain bool) *adtd.Model {
	tcfg.Log = s.Cfg.Log
	ckpt := s.checkpointPath(key, ds, tcfg.Epochs)
	if m, ok := loadCheckpoint(s, adtd.ReadModel, ckpt); ok {
		m.SetEval()
		return m
	}
	tok := adtd.BuildVocabulary(ds.Train, ds.Registry.Names(), 4000)
	types := adtd.NewTypeSpace(ds.Registry.Names())
	m, err := adtd.New(mcfg, tok, types, s.Cfg.Seed)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	if pretrain && s.Cfg.PretrainSteps > 0 {
		pcfg := adtd.DefaultPretrainConfig()
		pcfg.Steps = s.Cfg.PretrainSteps
		pcfg.Log = s.Cfg.Log
		s.logf("experiments: pre-training %s (%d MLM steps)", key, pcfg.Steps)
		if _, err := adtd.Pretrain(m, ds.Train, pcfg); err != nil {
			panic(fmt.Sprintf("experiments: pretrain %s: %v", key, err))
		}
	}
	s.logf("experiments: fine-tuning %s (%d epochs, %d train tables)", key, tcfg.Epochs, len(ds.Train))
	if s.Cfg.ValSelect && tcfg.Epochs >= 8 {
		s.fineTuneWithValSelection(m, ds, tcfg, hist)
	} else {
		if _, err := adtd.FineTune(m, ds.Train, tcfg); err != nil {
			panic(fmt.Sprintf("experiments: fine-tune %s: %v", key, err))
		}
	}
	m.SetEval()
	s.saveCheckpoint(m.WriteModel, ckpt)
	return m
}

// fineTuneWithValSelection trains in 4-epoch stages and keeps the
// parameters with the best validation F1 (under the default detector).
func (s *Suite) fineTuneWithValSelection(m *adtd.Model, ds *corpus.Dataset, tcfg adtd.TrainConfig, hist bool) {
	stages := (tcfg.Epochs + valStageEpochs - 1) / valStageEpochs
	bestF1 := -1.0
	var best bytes.Buffer
	for i := 0; i < stages; i++ {
		if _, err := adtd.FineTune(m, ds.Train, valStage(tcfg, i, stages)); err != nil {
			panic(fmt.Sprintf("experiments: fine-tune stage %d: %v", i, err))
		}
		f1 := s.validationF1(m, ds, hist)
		s.logf("experiments: stage %d/%d val F1 %.4f", i+1, stages, f1)
		if f1 > bestF1 {
			bestF1 = f1
			best.Reset()
			if err := m.Save(&best); err != nil {
				panic(err)
			}
		}
	}
	if best.Len() > 0 {
		if err := m.Load(bytes.NewReader(best.Bytes())); err != nil {
			panic(err)
		}
	}
}

// valStageEpochs is how many epochs one validation-selection stage trains.
const valStageEpochs = 4

// valStage is the training config of stage i of a validation-selected run:
// valStageEpochs epochs that continue the run's global decay schedule, so
// stage i starts where the schedule stands after i of its stages.
func valStage(tcfg adtd.TrainConfig, i, stages int) adtd.TrainConfig {
	cfg := tcfg
	cfg.Epochs = valStageEpochs
	cfg.LR = train.EpochLR(tcfg.LR, tcfg.FinalLR, i, stages+1)
	cfg.FinalLR = train.EpochLR(tcfg.LR, tcfg.FinalLR, i+1, stages+1)
	cfg.Seed = tcfg.Seed + int64(i)
	return cfg
}

// validationF1 scores the current model on the validation split with the
// default two-phase detector over a latency-free server.
func (s *Suite) validationF1(m *adtd.Model, ds *corpus.Dataset, hist bool) float64 {
	opts := core.DefaultOptions()
	opts.UseHistogram = hist
	det, err := core.NewDetector(m, opts)
	if err != nil {
		panic(err)
	}
	server := simdb.NewServer(simdb.NoLatency)
	val := ds.Val
	if len(val) > 60 {
		val = val[:60]
	}
	server.LoadTables("val", val)
	rep, err := det.DetectDatabase(context.Background(), server, "val", core.SequentialMode)
	if err != nil {
		panic(err)
	}
	acc := scoreReport(rep, truthOf(val))
	m.SetTrain() // detector construction flipped the model to eval
	return acc.F1()
}

// BaselineModel returns the trained TURL or Doduo model for a dataset.
func (s *Suite) BaselineModel(v baselines.Variant, dsName string) *baselines.Model {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := fmt.Sprintf("%s-%s", v, dsName)
	if m, ok := s.base[key]; ok {
		return m
	}
	ds := s.datasetLocked(dsName)
	cfg := baselines.TURLScale()
	if v == baselines.Doduo {
		cfg = baselines.DoduoScale()
	}
	ckpt := s.checkpointPath(key, ds, s.Cfg.BaselineEpochs)
	if m, ok := loadCheckpoint(s, baselines.ReadModel, ckpt); ok {
		m.SetEval()
		s.base[key] = m
		return m
	}
	tok := adtd.BuildVocabulary(ds.Train, ds.Registry.Names(), 4000)
	types := adtd.NewTypeSpace(ds.Registry.Names())
	m := baselines.New(v, cfg, tok, types, s.Cfg.Seed)
	tcfg := baselines.TunedTrainConfig(v, s.Cfg.BaselineEpochs)
	tcfg.Log = s.Cfg.Log
	s.logf("experiments: fine-tuning %s (%d epochs)", key, tcfg.Epochs)
	if _, err := baselines.FineTune(m, ds.Train, tcfg); err != nil {
		panic(fmt.Sprintf("experiments: fine-tune %s: %v", key, err))
	}
	m.SetEval()
	s.saveCheckpoint(m.WriteModel, ckpt)
	s.base[key] = m
	return m
}

// checkpointPath derives a content-addressed checkpoint file name.
func (s *Suite) checkpointPath(key string, ds *corpus.Dataset, epochs int) string {
	if s.Cfg.CheckpointDir == "" {
		return ""
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%d|%d|%d|%d|%v|%d", key, ds.Name, len(ds.Train), s.Cfg.Seed, epochs, s.Cfg.PretrainSteps, s.Cfg.ValSelect, ds.Registry.Len())
	return filepath.Join(s.Cfg.CheckpointDir, fmt.Sprintf("%s-%x.ckpt", key, h.Sum64()))
}

// loadCheckpoint reads the model file at path with read (adtd.ReadModel,
// baselines.ReadModel). A missing file is a cache miss; a file read
// refuses — an earlier weights-only file among them — is logged and
// retrained over.
func loadCheckpoint[M any](s *Suite, read func(io.Reader) (M, error), path string) (M, bool) {
	var m M
	if path == "" {
		return m, false
	}
	f, err := os.Open(path)
	if err != nil {
		return m, false
	}
	defer f.Close()
	if m, err = read(f); err != nil {
		s.logf("experiments: ignoring bad checkpoint %s: %v", path, err)
		return m, false
	}
	s.logf("experiments: loaded checkpoint %s", path)
	return m, true
}

// saveCheckpoint writes a model file at path with write (a WriteModel).
func (s *Suite) saveCheckpoint(write func(io.Writer) error, path string) {
	if path == "" {
		return
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		s.logf("experiments: cannot create checkpoint dir: %v", err)
		return
	}
	if err := adtd.WriteFile(path, write); err != nil {
		s.logf("experiments: checkpoint write failed: %v", err)
	}
}

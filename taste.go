// Package taste is the public API of the Taste reproduction: a practical
// two-phase deep-learning framework for semantic type detection in the
// cloud (Li et al., EDBT 2025).
//
// The package re-exports the building blocks from the internal packages and
// adds a few high-level helpers so that the common path — generate or load
// a corpus, train an ADTD model, stand up a simulated user database, and
// run end-to-end detection — takes a handful of lines:
//
//	ds := taste.WikiTableDataset(300, 1)
//	model, _ := taste.NewModel(ds, taste.ReproScale(), 1)
//	taste.Train(model, ds, taste.DefaultTrainConfig())
//	server := taste.NewServer(taste.PaperLatency(0.01))
//	server.LoadTables("tenant", ds.Test)
//	det, _ := taste.NewDetector(model, taste.DefaultOptions())
//	report, _ := det.DetectDatabase(ctx, server, "tenant", taste.PipelinedMode())
//
// Every detection entry point accepts a context.Context: a deadline on the
// context bounds the whole batch, and columns whose Phase-2 work the
// deadline (or a flaky database) cuts off degrade to Phase-1 answers marked
// Degraded instead of failing the request.
//
// See the examples/ directory for complete programs and DESIGN.md for the
// paper-to-package map.
package taste

import (
	"repro/internal/adtd"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/metrics"
	"repro/internal/simdb"
)

// Core framework (internal/core).
type (
	// Detector is the two-phase detection service (§3).
	Detector = core.Detector
	// Options configures thresholds α/β, scan parameters m/n/l, the scan
	// strategy, histograms and caching.
	Options = core.Options
	// ExecMode selects sequential or pipelined batch execution (§5).
	ExecMode = core.ExecMode
	// Report aggregates a batch run: timing, scanned-column ratio, cache
	// statistics and per-column results.
	Report = core.Report
	// TableResult is one table's detection outcome.
	TableResult = core.TableResult
	// ColumnResult is one column's admitted types and provenance.
	ColumnResult = core.ColumnResult
)

// ADTD model (internal/adtd).
type (
	// Model is the Asymmetric Double-Tower Detection network (§4).
	Model = adtd.Model
	// ModelConfig carries the BERT-style sizing parameters (§2.3).
	ModelConfig = adtd.Config
	// TrainConfig controls fine-tuning.
	TrainConfig = adtd.TrainConfig
	// PretrainConfig controls masked-language-model pre-training (§4.2.1).
	PretrainConfig = adtd.PretrainConfig
	// TypeSpace is the ordered semantic type domain the model predicts.
	TypeSpace = adtd.TypeSpace
)

// Corpus generation (internal/corpus).
type (
	// Dataset is a generated table corpus with train/val/test splits.
	Dataset = corpus.Dataset
	// Table is one generated user table with ground-truth labels.
	Table = corpus.Table
	// Column is one labelled column.
	Column = corpus.Column
	// SemanticType describes a semantic type and how to generate values
	// and metadata for it.
	SemanticType = corpus.Type
	// Registry is the semantic type domain set S.
	Registry = corpus.Registry
	// Profile controls corpus shape (ambiguity, null columns, widths).
	Profile = corpus.Profile
)

// Simulated cloud database (internal/simdb).
type (
	// Server is the simulated remote user database host.
	Server = simdb.Server
	// Conn is a database connection.
	Conn = simdb.Conn
	// LatencyProfile models network and transfer costs.
	LatencyProfile = simdb.LatencyProfile
	// ScanOptions configures content scans.
	ScanOptions = simdb.ScanOptions
	// FaultProfile configures deterministic fault injection on a Server:
	// transient connect/query/scan failures, mid-scan drops, slow queries.
	FaultProfile = simdb.FaultProfile
)

// Metrics (internal/metrics).
type (
	// F1Accumulator scores multi-label predictions (micro P/R/F1).
	F1Accumulator = metrics.F1Accumulator
)

// NullType is the background label for columns without a semantic type.
const NullType = corpus.NullType

// Re-exported constructors and presets.
var (
	// NewDetector wraps a trained model with framework options.
	NewDetector = core.NewDetector
	// DefaultOptions is the paper's default configuration (α=0.1, β=0.9,
	// m=50, n=10, l=20).
	DefaultOptions = core.DefaultOptions
	// PipelinedMode returns Algorithm 1 execution: at most GOMAXPROCS
	// inference stages (TP2) at once; reads are not pooled.
	PipelinedMode = core.PipelinedMode
	// SequentialMode processes tables one by one.
	SequentialMode = core.SequentialMode

	// ReproScale is the CPU-trainable model preset used throughout.
	ReproScale = adtd.ReproScale
	// PaperScale records the paper's deployed model sizing.
	PaperScale = adtd.PaperScale
	// DefaultTrainConfig returns repro-scale training settings.
	DefaultTrainConfig = adtd.DefaultTrainConfig
	// DefaultPretrainConfig returns repro-scale MLM settings.
	DefaultPretrainConfig = adtd.DefaultPretrainConfig
	// Pretrain runs masked-language-model pre-training.
	Pretrain = adtd.Pretrain

	// DefaultRegistry returns the built-in 60-type semantic type domain.
	DefaultRegistry = corpus.DefaultRegistry
	// WikiTableProfile mimics the WikiTable dataset's shape.
	WikiTableProfile = corpus.WikiTableProfile
	// GitTablesProfile mimics GitTables-100K's shape.
	GitTablesProfile = corpus.GitTablesProfile
	// Generate builds a dataset from a registry and profile.
	Generate = corpus.Generate

	// NewServer creates a simulated user database server.
	NewServer = simdb.NewServer
	// PaperLatency scales the paper testbed's latency profile.
	PaperLatency = simdb.PaperLatency
	// NoLatency disables injected delays.
	NoLatency = simdb.NoLatency

	// IsTransient reports whether an error from a Server API is a
	// retryable transient fault.
	IsTransient = simdb.IsTransient

	// NewF1Accumulator creates a multi-label scorer.
	NewF1Accumulator = metrics.NewF1Accumulator

	// WriteTables / ReadTables serialize corpora as JSONL.
	WriteTables = corpus.WriteJSONL
	ReadTables  = corpus.ReadJSONL
)

// WikiTableDataset generates a WikiTable-profile corpus with the default
// registry: every column labelled, metadata moderately ambiguous.
func WikiTableDataset(tables int, seed int64) *Dataset {
	return corpus.Generate(corpus.DefaultRegistry(), corpus.WikiTableProfile(tables), seed)
}

// GitTablesDataset generates a GitTables-profile corpus with the default
// registry: CSV-style informative headers, ≈32 % type-less columns.
func GitTablesDataset(tables int, seed int64) *Dataset {
	return corpus.Generate(corpus.DefaultRegistry(), corpus.GitTablesProfile(tables), seed)
}

// NewModel builds an untrained ADTD model sized for the dataset: the
// vocabulary is learned from the training split and the type space covers
// the dataset's registry.
func NewModel(ds *Dataset, cfg ModelConfig, seed int64) (*Model, error) {
	tok := adtd.BuildVocabulary(ds.Train, ds.Registry.Names(), 4000)
	types := adtd.NewTypeSpace(ds.Registry.Names())
	return adtd.New(cfg, tok, types, seed)
}

// Train fine-tunes the model on the dataset's training split.
func Train(m *Model, ds *Dataset, cfg TrainConfig) error {
	_, err := adtd.FineTune(m, ds.Train, cfg)
	return err
}

// GroundTruth builds a "table.column" → labels map for scoring a Report
// against a dataset split.
func GroundTruth(tables []*Table) map[string][]string {
	out := make(map[string][]string)
	for _, t := range tables {
		for _, c := range t.Columns {
			out[t.Name+"."+c.Name] = c.Labels
		}
	}
	return out
}

// Score computes micro precision/recall/F1 of a report against ground
// truth produced by GroundTruth.
func Score(rep *Report, truth map[string][]string) *F1Accumulator {
	acc := metrics.NewF1Accumulator()
	for _, tr := range rep.Tables {
		for _, c := range tr.Columns {
			acc.Add(c.Admitted, truth[tr.Table+"."+c.Column])
		}
	}
	return acc
}

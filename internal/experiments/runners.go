package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/metrics"
	"repro/internal/simdb"
)

// RunResult holds the end-to-end measurements of one approach on one
// dataset — the quantities Figures 4–8 and Tables 3–4 report.
type RunResult struct {
	Name         string
	Dataset      string
	Duration     time.Duration
	DurationsAll []time.Duration
	Precision    float64
	Recall       float64
	F1           float64
	TotalColumns int
	ScannedCols  int
	CacheHits    int
	Errors       int
	// Answers maps "table.column" to the column's answer, and Ledger is
	// the tenant database's accounting, both of the first repeat.
	Answers map[string]core.ColumnResult
	Ledger  simdb.AccountingSnapshot
}

// ScannedRatio is the intrusiveness metric of §6.2.
func (r *RunResult) ScannedRatio() float64 {
	if r.TotalColumns == 0 {
		return 0
	}
	return float64(r.ScannedCols) / float64(r.TotalColumns)
}

// TasteVariant selects one of the six Taste configurations of §6.2.
type TasteVariant struct {
	Name      string
	Hist      bool
	Pipelined bool
	Cache     bool
	Sampling  bool
	DisableP2 bool
	Alpha     float64 // 0 = use default
	Beta      float64 // 0 = use default
	SplitL    int     // 0 = default 20
	CellsN    int     // 0 = default 10
}

// DefaultTaste is the paper's default Taste configuration.
func DefaultTaste() TasteVariant {
	return TasteVariant{Name: "Taste", Pipelined: true, Cache: true}
}

// MainVariants are the six Taste variants compared in §6.2 plus nothing
// else; the baselines run through RunBaseline.
func MainVariants() []TasteVariant {
	def := DefaultTaste()
	hist := def
	hist.Name, hist.Hist = "Taste w/ histogram", true
	noPipe := def
	noPipe.Name, noPipe.Pipelined = "Taste w/o pipelining", false
	noCache := def
	noCache.Name, noCache.Cache = "Taste w/o caching", false
	sampling := def
	sampling.Name, sampling.Sampling = "Taste w/ sampling", true
	noP2 := def
	noP2.Name, noP2.DisableP2 = "Taste w/o P2", true
	return []TasteVariant{def, hist, noPipe, noCache, sampling, noP2}
}

func (s *Suite) options(v TasteVariant) core.Options {
	opts := core.DefaultOptions()
	opts.UseHistogram = v.Hist
	if !v.Cache {
		opts.CacheBytes = 0
		opts.ResultCacheBytes = 0
	}
	if v.Sampling {
		opts.Strategy = simdb.RandomSample
	}
	if v.DisableP2 {
		opts.Alpha, opts.Beta = 0.5, 0.5
	}
	if v.Alpha != 0 || v.Beta != 0 {
		opts.Alpha, opts.Beta = v.Alpha, v.Beta
	}
	if v.SplitL != 0 {
		opts.SplitThreshold = v.SplitL
	}
	if v.CellsN != 0 {
		opts.CellsPerColumn = v.CellsN
	}
	return opts
}

// truthOf builds the scoring map for a table set.
func truthOf(tables []*corpus.Table) map[string][]string {
	out := make(map[string][]string)
	for _, t := range tables {
		for _, c := range t.Columns {
			out[t.Name+"."+c.Name] = c.Labels
		}
	}
	return out
}

func scoreReport(rep *core.Report, truth map[string][]string) *metrics.F1Accumulator {
	acc := metrics.NewF1Accumulator()
	for _, tr := range rep.Tables {
		for _, c := range tr.Columns {
			acc.Add(c.Admitted, truth[tr.Table+"."+c.Column])
		}
	}
	return acc
}

// newTestServer stands up a fresh simulated user database holding the test
// split, with the configured latency.
func (s *Suite) newTestServer(ds *corpus.Dataset) *simdb.Server {
	server := simdb.NewServer(simdb.PaperLatency(s.Cfg.LatencyScale))
	server.LoadTables("tenant", ds.Test)
	return server
}

// RunTaste executes one Taste variant end-to-end on a dataset's test split.
func (s *Suite) RunTaste(dsName string, v TasteVariant) *RunResult {
	model := s.TasteModel(dsName, v.Hist)
	mode := core.SequentialMode
	if v.Pipelined {
		mode = core.PipelinedMode()
	}
	return s.run(v.Name, dsName, mode, func() (*core.Detector, error) {
		return core.NewDetector(model, s.options(v))
	})
}

// RunBaseline executes TURL or Doduo end-to-end as a detector configuration
// (core.NewBaselineDetector), sequentially as the paper runs them: a
// full-content scan per table, their models cannot predict without content,
// then inference. withContent=false is the strict-privacy setting of
// Table 4: α = β, as for "Taste w/o P2", so Phase 1 predicts from the
// metadata alone and nothing is scanned.
func (s *Suite) RunBaseline(dsName string, v baselines.Variant, withContent bool) *RunResult {
	model := s.BaselineModel(v, dsName)
	name, opts := v.String(), core.DefaultOptions()
	if !withContent {
		name += " w/o content"
		opts.Alpha, opts.Beta = 0.5, 0.5
	}
	return s.run(name, dsName, core.SequentialMode, func() (*core.Detector, error) {
		return core.NewBaselineDetector(model, opts)
	})
}

// run measures one detector configuration end-to-end on a dataset's test
// split: Cfg.Repeats timed detects, each on a fresh detector and server (so
// each pays its own ANALYZE and scan costs), the first one scored.
func (s *Suite) run(name, dsName string, mode core.ExecMode, newDetector func() (*core.Detector, error)) *RunResult {
	ds := s.Dataset(dsName)
	truth := truthOf(ds.Test)
	res := &RunResult{Name: name, Dataset: dsName}
	repeats := max(s.Cfg.Repeats, 1)
	var total time.Duration
	for r := 0; r < repeats; r++ {
		det, err := newDetector()
		if err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
		server := s.newTestServer(ds)
		rep, err := det.DetectDatabase(context.Background(), server, "tenant", mode)
		if err != nil {
			panic(fmt.Sprintf("experiments: run %s: %v", name, err))
		}
		total += rep.Duration
		res.DurationsAll = append(res.DurationsAll, rep.Duration)
		if r == 0 {
			acc := scoreReport(rep, truth)
			res.Precision, res.Recall, res.F1 = acc.Precision(), acc.Recall(), acc.F1()
			res.TotalColumns = rep.TotalColumns
			res.ScannedCols = rep.ScannedColumns
			res.CacheHits = rep.CacheHits
			res.Errors = len(rep.Errors)
			res.Answers = make(map[string]core.ColumnResult, rep.TotalColumns)
			for _, tr := range rep.Tables {
				for _, c := range tr.Columns {
					res.Answers[tr.Table+"."+c.Column] = c
				}
			}
			res.Ledger = server.Accounting().Snapshot()
		}
	}
	res.Duration = total / time.Duration(repeats)
	s.logf("experiments: %-22s %-9s time=%-12v F1=%.4f scanned=%.1f%%",
		name, dsName, res.Duration.Round(time.Millisecond), res.F1, 100*res.ScannedRatio())
	return res
}

// MainRuns returns (computing once) the Fig-4/Table-3/Fig-5 measurement set
// for a dataset: both baselines plus the five non-privacy Taste variants.
func (s *Suite) MainRuns(dsName string) []*RunResult {
	s.mu.Lock()
	if rs, ok := s.mainRuns[dsName]; ok {
		s.mu.Unlock()
		return rs
	}
	s.mu.Unlock()

	var runs []*RunResult
	runs = append(runs, s.RunBaseline(dsName, baselines.TURL, true))
	runs = append(runs, s.RunBaseline(dsName, baselines.Doduo, true))
	for _, v := range MainVariants() {
		if v.DisableP2 {
			continue // the privacy variant belongs to Table 4
		}
		runs = append(runs, s.RunTaste(dsName, v))
	}
	s.mu.Lock()
	s.mainRuns[dsName] = runs
	s.mu.Unlock()
	return runs
}

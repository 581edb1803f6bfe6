package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/metafeat"
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
	Name       string
	Hist       bool
	Pipelined  bool
	Cache      bool
	Sampling   bool
	DisableP2  bool
	Alpha      float64 // 0 = use default
	Beta       float64 // 0 = use default
	SplitL     int     // 0 = default 20
	CellsN     int     // 0 = default 10
	Sequential bool    // redundant with !Pipelined; kept for clarity
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

// RunTaste executes one Taste variant end-to-end on a dataset's test split,
// repeating the timed portion Cfg.Repeats times (fresh server each run, as
// each run must pay its own ANALYZE/scan costs).
func (s *Suite) RunTaste(dsName string, v TasteVariant) *RunResult {
	ds := s.Dataset(dsName)
	model := s.TasteModel(dsName, v.Hist)
	truth := truthOf(ds.Test)

	res := &RunResult{Name: v.Name, Dataset: dsName}
	repeats := s.Cfg.Repeats
	if repeats < 1 {
		repeats = 1
	}
	var total time.Duration
	for r := 0; r < repeats; r++ {
		det, err := core.NewDetector(model, s.options(v))
		if err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
		server := s.newTestServer(ds)
		mode := core.SequentialMode
		if v.Pipelined {
			mode = core.PipelinedMode()
		}
		rep, err := det.DetectDatabase(context.Background(), server, "tenant", mode)
		if err != nil {
			panic(fmt.Sprintf("experiments: run %s: %v", v.Name, err))
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
		}
	}
	res.Duration = total / time.Duration(repeats)
	s.logf("experiments: %-22s %-9s time=%-12v F1=%.4f scanned=%.1f%%",
		v.Name, dsName, res.Duration.Round(time.Millisecond), res.F1, 100*res.ScannedRatio())
	return res
}

// RunBaseline executes TURL or Doduo end-to-end: sequential processing, one
// metadata fetch plus a full-content scan per table (their models cannot
// predict without content), then inference. withContent=false is the
// strict-privacy setting of Table 4 (content blanked, no scans).
func (s *Suite) RunBaseline(dsName string, v baselines.Variant, withContent bool) *RunResult {
	ds := s.Dataset(dsName)
	model := s.BaselineModel(v, dsName)
	truth := truthOf(ds.Test)
	name := v.String()
	if !withContent {
		name += " w/o content"
	}
	res := &RunResult{Name: name, Dataset: dsName}
	repeats := s.Cfg.Repeats
	if repeats < 1 {
		repeats = 1
	}
	var total time.Duration
	for r := 0; r < repeats; r++ {
		server := s.newTestServer(ds)
		start := time.Now()
		acc := metrics.NewF1Accumulator()
		scanned, totalCols := 0, 0
		conn, err := server.Connect(context.Background(), "tenant")
		if err != nil {
			panic(err)
		}
		tables, err := conn.ListTables(context.Background())
		if err != nil {
			panic(err)
		}
		for _, tn := range tables {
			tm, err := conn.TableMetadata(context.Background(), tn)
			if err != nil {
				panic(err)
			}
			info := metafeat.FromTableMeta(tm)
			if withContent {
				names := make([]string, len(info.Columns))
				for i, c := range info.Columns {
					names[i] = c.Name
				}
				content, err := conn.ScanColumns(context.Background(), tn, names, simdb.ScanOptions{Strategy: simdb.FirstRows, Rows: 50})
				if err != nil {
					panic(err)
				}
				for _, c := range info.Columns {
					c.Values = content[c.Name]
				}
				scanned += len(names)
			}
			for _, chunk := range info.Split(20) {
				probs := model.Predict(chunk, 10, withContent)
				// Wide chunks can exceed the model's W_max: columns whose
				// anchors were truncated away get no prediction (the same
				// sequence-length limitation §6.1.2 works around by
				// splitting), which scores as missed labels.
				for i, c := range chunk.Columns {
					totalCols++
					var admitted []string
					if i < len(probs) {
						for j, p := range probs[i] {
							if j == 0 {
								continue // background type
							}
							if p >= 0.5 {
								admitted = append(admitted, model.Types.Name(j))
							}
						}
					}
					if r == 0 {
						acc.Add(admitted, truth[tn+"."+c.Name])
					}
				}
			}
		}
		conn.Close()
		dur := time.Since(start)
		total += dur
		res.DurationsAll = append(res.DurationsAll, dur)
		if r == 0 {
			res.Precision, res.Recall, res.F1 = acc.Precision(), acc.Recall(), acc.F1()
			res.TotalColumns = totalCols
			res.ScannedCols = scanned
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

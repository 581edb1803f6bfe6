package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/simdb"
)

// --- Table 2: dataset summary ---

// Table2Result summarizes both corpora per split (paper Table 2).
type Table2Result struct {
	Rows []Table2Row
}

// Table2Row is one dataset/split line.
type Table2Row struct {
	Dataset   string
	Split     string
	Tables    int
	Columns   int
	Types     int
	PctNoType float64
}

// Table2 reproduces the dataset summary.
func (s *Suite) Table2() *Table2Result {
	res := &Table2Result{}
	for _, dsName := range []string{Wiki, Git} {
		ds := s.Dataset(dsName)
		stats := ds.Stats()
		names := []string{"all", "training", "validation", "testing"}
		for i, st := range stats {
			res.Rows = append(res.Rows, Table2Row{
				Dataset: ds.Name, Split: names[i],
				Tables: st.Tables, Columns: st.Columns,
				Types: st.Types, PctNoType: st.PctNoType,
			})
		}
	}
	return res
}

// String renders the paper-style table.
func (r *Table2Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: Summary of the synthetic datasets\n")
	fmt.Fprintf(&b, "%-22s %-11s %8s %9s %7s %10s\n", "Dataset", "Split", "#tables", "#cols", "#types", "%col w/o")
	for _, row := range r.Rows {
		label := row.Dataset
		if row.Split != "all" {
			label = " - " + row.Split
		}
		fmt.Fprintf(&b, "%-22s %-11s %8d %9d %7d %9.2f%%\n", label, "", row.Tables, row.Columns, row.Types, row.PctNoType)
	}
	return b.String()
}

// --- Fig 4: end-to-end execution time ---

// Fig4Result holds per-dataset execution times for every approach.
type Fig4Result struct {
	Runs map[string][]*RunResult // dataset → runs
}

// Fig4 measures end-to-end execution time (§6.3).
func (s *Suite) Fig4() *Fig4Result {
	return &Fig4Result{Runs: map[string][]*RunResult{
		Wiki: s.MainRuns(Wiki),
		Git:  s.MainRuns(Git),
	}}
}

// String renders the figure as a text table.
func (r *Fig4Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 4: End-to-end execution time\n")
	fmt.Fprintf(&b, "%-24s %15s %15s\n", "Approach", "WikiTable", "GitTables")
	for i := range r.Runs[Wiki] {
		w := r.Runs[Wiki][i]
		g := r.Runs[Git][i]
		fmt.Fprintf(&b, "%-24s %15v %15v\n", w.Name,
			w.Duration.Round(time.Millisecond), g.Duration.Round(time.Millisecond))
	}
	if base := findRun(r.Runs[Wiki], "TURL"); base != nil {
		if taste := findRun(r.Runs[Wiki], "Taste"); taste != nil {
			fmt.Fprintf(&b, "Taste vs TURL reduction: WikiTable %.1f%%", reduction(base.Duration, taste.Duration))
		}
	}
	if base := findRun(r.Runs[Git], "TURL"); base != nil {
		if taste := findRun(r.Runs[Git], "Taste"); taste != nil {
			fmt.Fprintf(&b, ", GitTables %.1f%%\n", reduction(base.Duration, taste.Duration))
		}
	}
	return b.String()
}

func findRun(runs []*RunResult, name string) *RunResult {
	for _, r := range runs {
		if r.Name == name {
			return r
		}
	}
	return nil
}

func reduction(base, improved time.Duration) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (1 - float64(improved)/float64(base))
}

// --- Table 3: F1 scores ---

// Table3Result holds precision/recall/F1 per approach per dataset.
type Table3Result struct {
	Runs map[string][]*RunResult
}

// Table3 reports prediction quality (§6.4). Pipelining/caching variants are
// omitted as in the paper (they do not affect F1).
func (s *Suite) Table3() *Table3Result {
	pick := func(runs []*RunResult) []*RunResult {
		var out []*RunResult
		for _, r := range runs {
			switch r.Name {
			case "TURL", "Doduo", "Taste", "Taste w/ histogram", "Taste w/ sampling":
				out = append(out, r)
			}
		}
		return out
	}
	return &Table3Result{Runs: map[string][]*RunResult{
		Wiki: pick(s.MainRuns(Wiki)),
		Git:  pick(s.MainRuns(Git)),
	}}
}

// String renders the paper-style table.
func (r *Table3Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: F1 scores (n=10, l=20, α=0.1, β=0.9)\n")
	for _, ds := range []string{Wiki, Git} {
		fmt.Fprintf(&b, "%s dataset\n", ds)
		fmt.Fprintf(&b, "  %-24s %10s %10s %10s\n", "Model", "Precision", "Recall", "F1")
		for _, run := range r.Runs[ds] {
			fmt.Fprintf(&b, "  %-24s %10.4f %10.4f %10.4f\n", run.Name, run.Precision, run.Recall, run.F1)
		}
	}
	return b.String()
}

// --- Table 4: metadata-only (strict privacy) F1 ---

// Table4Result holds strict-privacy scores.
type Table4Result struct {
	Runs map[string][]*RunResult
}

// Table4 blanks content for the baselines and disables P2 for Taste
// (α=β=0.5), reproducing the privacy study of §6.4.
func (s *Suite) Table4() *Table4Result {
	res := &Table4Result{Runs: map[string][]*RunResult{}}
	for _, ds := range []string{Wiki, Git} {
		var runs []*RunResult
		runs = append(runs, s.RunBaseline(ds, baselines.TURL, false))
		runs = append(runs, s.RunBaseline(ds, baselines.Doduo, false))
		noP2 := DefaultTaste()
		noP2.Name, noP2.DisableP2 = "Taste w/o P2", true
		runs = append(runs, s.RunTaste(ds, noP2))
		res.Runs[ds] = runs
	}
	return res
}

// String renders the paper-style table.
func (r *Table4Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4: F1 scores with only metadata as input (l=20)\n")
	for _, ds := range []string{Wiki, Git} {
		fmt.Fprintf(&b, "%s dataset\n", ds)
		fmt.Fprintf(&b, "  %-24s %10s %10s %10s\n", "Model", "Precision", "Recall", "F1")
		for _, run := range r.Runs[ds] {
			fmt.Fprintf(&b, "  %-24s %10.4f %10.4f %10.4f\n", run.Name, run.Precision, run.Recall, run.F1)
		}
	}
	return b.String()
}

// --- Fig 5: ratio of scanned columns ---

// Fig5Result holds scanned-column ratios.
type Fig5Result struct {
	Runs map[string][]*RunResult
}

// Fig5 reports intrusiveness (§6.5); derived from the main runs.
func (s *Suite) Fig5() *Fig5Result {
	pick := func(runs []*RunResult) []*RunResult {
		var out []*RunResult
		for _, r := range runs {
			switch r.Name {
			case "TURL", "Doduo", "Taste", "Taste w/ histogram":
				out = append(out, r)
			}
		}
		return out
	}
	return &Fig5Result{Runs: map[string][]*RunResult{
		Wiki: pick(s.MainRuns(Wiki)),
		Git:  pick(s.MainRuns(Git)),
	}}
}

// String renders the figure as a text table.
func (r *Fig5Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 5: Ratio of scanned columns\n")
	fmt.Fprintf(&b, "%-24s %12s %12s\n", "Approach", "WikiTable", "GitTables")
	for i := range r.Runs[Wiki] {
		w, g := r.Runs[Wiki][i], r.Runs[Git][i]
		fmt.Fprintf(&b, "%-24s %11.1f%% %11.1f%%\n", w.Name, 100*w.ScannedRatio(), 100*g.ScannedRatio())
	}
	return b.String()
}

// --- Fig 6: columns without any types ---

// Fig6Point is one retained-type-set measurement.
type Fig6Point struct {
	K            int     // retained types
	Eta          float64 // % of test columns without any type
	Duration     time.Duration
	F1           float64
	ScannedRatio float64
}

// Fig6Result is the η sweep.
type Fig6Result struct {
	Points []Fig6Point
}

// Fig6 sweeps the retained type set Sk on WikiTable (§6.6): each k keeps k
// random types, relabels, re-fine-tunes, and measures the default Taste.
func (s *Suite) Fig6(ks []int) *Fig6Result {
	if len(ks) == 0 {
		ks = []int{50, 30, 15, 8}
	}
	base := s.Dataset(Wiki)
	res := &Fig6Result{}
	for _, k := range ks {
		retained := base.SampleTypes(k, 0)
		tuned := base.Tune(retained)
		key := fmt.Sprintf("taste-%s", tuned.Name)
		model := s.tunedTasteModel(key, tuned, nil)

		truth := truthOf(tuned.Test)
		eta := tuned.Stats()[3].PctNoType

		det, err := core.NewDetector(model, s.options(DefaultTaste()))
		if err != nil {
			panic(err)
		}
		server := simdb.NewServer(simdb.PaperLatency(s.Cfg.LatencyScale))
		server.LoadTables("tenant", tuned.Test)
		rep, err := det.DetectDatabase(context.Background(), server, "tenant", core.PipelinedMode())
		if err != nil {
			panic(err)
		}
		acc := scoreReport(rep, truth)
		res.Points = append(res.Points, Fig6Point{
			K: k, Eta: eta, Duration: rep.Duration,
			F1: acc.F1(), ScannedRatio: rep.ScannedRatio(),
		})
		s.logf("experiments: Fig6 k=%d η=%.1f%% time=%v F1=%.4f scanned=%.1f%%",
			k, eta, rep.Duration.Round(time.Millisecond), acc.F1(), 100*rep.ScannedRatio())
	}
	sort.Slice(res.Points, func(i, j int) bool { return res.Points[i].Eta < res.Points[j].Eta })
	return res
}

// String renders the figure as a text table.
func (r *Fig6Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 6: Performance vs ratio of columns without any types (WikiTable-Sk)\n")
	fmt.Fprintf(&b, "%6s %8s %14s %10s %12s\n", "k", "η", "exec time", "F1", "scanned")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%6d %7.1f%% %14v %10.4f %11.1f%%\n",
			p.K, p.Eta, p.Duration.Round(time.Millisecond), p.F1, 100*p.ScannedRatio)
	}
	return b.String()
}

// --- Fig 7: α and β sensitivity ---

// Fig7Point is one (α, β) measurement.
type Fig7Point struct {
	Alpha, Beta     float64
	F1              float64
	NotScannedRatio float64
	Duration        time.Duration
}

// Fig7Result is the threshold sweep.
type Fig7Result struct {
	Points []Fig7Point
}

// Fig7 sweeps (α, β) pairs on WikiTable with the default model (§6.7).
func (s *Suite) Fig7(pairs [][2]float64) *Fig7Result {
	if len(pairs) == 0 {
		pairs = [][2]float64{{0.5, 0.5}, {0.4, 0.6}, {0.3, 0.7}, {0.2, 0.8}, {0.1, 0.9}, {0.05, 0.95}, {0.02, 0.98}}
	}
	res := &Fig7Result{}
	for _, ab := range pairs {
		v := DefaultTaste()
		v.Name = fmt.Sprintf("Taste α=%.2f β=%.2f", ab[0], ab[1])
		v.Alpha, v.Beta = ab[0], ab[1]
		if ab[0] == ab[1] {
			v.DisableP2 = true
		}
		run := s.RunTaste(Wiki, v)
		res.Points = append(res.Points, Fig7Point{
			Alpha: ab[0], Beta: ab[1],
			F1:              run.F1,
			NotScannedRatio: 1 - run.ScannedRatio(),
			Duration:        run.Duration,
		})
	}
	return res
}

// String renders the figure as a text table.
func (r *Fig7Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 7: Effects of varying α and β (WikiTable)\n")
	fmt.Fprintf(&b, "%6s %6s %10s %14s %14s\n", "α", "β", "F1", "not scanned", "exec time")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%6.2f %6.2f %10.4f %13.1f%% %14v\n",
			p.Alpha, p.Beta, p.F1, 100*p.NotScannedRatio, p.Duration.Round(time.Millisecond))
	}
	return b.String()
}

// --- Fig 8: l and n sensitivity ---

// Fig8Point is one parameter measurement.
type Fig8Point struct {
	Value    int
	Duration time.Duration
	F1       float64
}

// Fig8Result covers both sweeps.
type Fig8Result struct {
	L []Fig8Point // column split threshold sweep (n=10)
	N []Fig8Point // cell value sweep (l=20)
}

// Fig8 sweeps the column split threshold l and the cell count n on
// WikiTable with the default model (§6.8).
func (s *Suite) Fig8(ls, ns []int) *Fig8Result {
	if len(ls) == 0 {
		ls = []int{4, 8, 12, 16, 20}
	}
	if len(ns) == 0 {
		ns = []int{2, 4, 6, 8, 10}
	}
	res := &Fig8Result{}
	for _, l := range ls {
		v := DefaultTaste()
		v.Name = fmt.Sprintf("Taste l=%d", l)
		v.SplitL = l
		run := s.RunTaste(Wiki, v)
		res.L = append(res.L, Fig8Point{Value: l, Duration: run.Duration, F1: run.F1})
	}
	for _, n := range ns {
		v := DefaultTaste()
		v.Name = fmt.Sprintf("Taste n=%d", n)
		v.CellsN = n
		run := s.RunTaste(Wiki, v)
		res.N = append(res.N, Fig8Point{Value: n, Duration: run.Duration, F1: run.F1})
	}
	return res
}

// String renders both sweeps as text tables.
func (r *Fig8Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 8(a): Impact of column split threshold l (n=10, WikiTable)\n")
	fmt.Fprintf(&b, "%6s %14s %10s\n", "l", "exec time", "F1")
	for _, p := range r.L {
		fmt.Fprintf(&b, "%6d %14v %10.4f\n", p.Value, p.Duration.Round(time.Millisecond), p.F1)
	}
	fmt.Fprintf(&b, "Fig 8(b): Impact of cell values n (l=20, WikiTable)\n")
	fmt.Fprintf(&b, "%6s %14s %10s\n", "n", "exec time", "F1")
	for _, p := range r.N {
		fmt.Fprintf(&b, "%6d %14v %10.4f\n", p.Value, p.Duration.Round(time.Millisecond), p.F1)
	}
	return b.String()
}

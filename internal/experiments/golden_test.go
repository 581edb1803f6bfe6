package experiments

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"

	"repro/internal/baselines"
)

var updateGolden = flag.Bool("update", false, "rewrite artifacts/golden_baselines.json")

const baselineGoldenPath = "../../artifacts/golden_baselines.json"

// goldenBaselineColumn is one column's answer: its admitted types, and the
// non-background type it scored highest with that probability. The test
// suite's one-epoch baselines admit little, so the top type is what tells a
// column's probability row from another's.
type goldenBaselineColumn struct {
	Column string   `json:"column"`
	Types  []string `json:"types"`
	Top    string   `json:"top"`
	TopP   float64  `json:"top_p"`
}

// goldenBaselineRun is one baseline run's checked-in record.
type goldenBaselineRun struct {
	Name           string                 `json:"name"`
	TotalColumns   int                    `json:"total_columns"`
	ScannedCols    int                    `json:"scanned_cols"`
	Queries        int                    `json:"queries"`
	ColumnsScanned int                    `json:"columns_scanned"`
	Columns        []goldenBaselineColumn `json:"columns"`
}

// baselineGoldenRun records one baseline run, its columns by name.
func baselineGoldenRun(run *RunResult, s *Suite, v baselines.Variant) goldenBaselineRun {
	types := s.BaselineModel(v, Wiki).Types
	g := goldenBaselineRun{
		Name:           run.Name,
		TotalColumns:   run.TotalColumns,
		ScannedCols:    run.ScannedCols,
		Queries:        run.Ledger.Queries,
		ColumnsScanned: run.Ledger.ColumnsScanned,
	}
	for name, c := range run.Answers {
		col := goldenBaselineColumn{Column: name, Types: c.Admitted}
		if col.Types == nil {
			col.Types = []string{}
		}
		for i := 1; i < len(c.Probs); i++ {
			if col.Top == "" || c.Probs[i] > col.TopP {
				col.Top, col.TopP = types.Name(i), c.Probs[i]
			}
		}
		g.Columns = append(g.Columns, col)
	}
	sort.Slice(g.Columns, func(i, j int) bool { return g.Columns[i].Column < g.Columns[j].Column })
	return g
}

// TestBaselineGolden pins TURL and Doduo, with and without content, on the
// test suite's WikiTable: every column's admitted types and top-scoring
// type, the column counts and the tenant ledger. Admitted types and counts
// fix the baselines' F1 in Tables 3 and 4. Regenerate with:
//
//	go test ./internal/experiments/ -run TestBaselineGolden -update
func TestBaselineGolden(t *testing.T) {
	s := testSuite()
	tables := len(s.Dataset(Wiki).Test)
	var got []goldenBaselineRun
	for _, v := range []baselines.Variant{baselines.TURL, baselines.Doduo} {
		for _, withContent := range []bool{true, false} {
			run := baselineGoldenRun(s.RunBaseline(Wiki, v, withContent), s, v)
			want := 1 // one schema read
			if withContent {
				want += tables // and one scan per table
			}
			if run.Queries != want {
				t.Errorf("%s: %d queries over %d tables, want %d", run.Name, run.Queries, tables, want)
			}
			got = append(got, run)
		}
	}
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(baselineGoldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file rewritten: %s", baselineGoldenPath)
		return
	}
	raw, err := os.ReadFile(baselineGoldenPath)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	var want []goldenBaselineRun
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("runs = %d, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Name != w.Name || g.TotalColumns != w.TotalColumns || g.ScannedCols != w.ScannedCols ||
			g.Queries != w.Queries || g.ColumnsScanned != w.ColumnsScanned {
			t.Errorf("%s: got columns %d scanned %d queries %d ledger scans %d, want %d/%d/%d/%d",
				w.Name, g.TotalColumns, g.ScannedCols, g.Queries, g.ColumnsScanned,
				w.TotalColumns, w.ScannedCols, w.Queries, w.ColumnsScanned)
		}
		if len(g.Columns) != len(w.Columns) {
			t.Errorf("%s: %d columns answered, want %d", w.Name, len(g.Columns), len(w.Columns))
			continue
		}
		for j, wc := range w.Columns {
			gc := g.Columns[j]
			if gc.Column != wc.Column || !reflect.DeepEqual(gc.Types, wc.Types) || gc.Top != wc.Top ||
				math.Float64bits(gc.TopP) != math.Float64bits(wc.TopP) {
				t.Errorf("%s: got %+v, want %+v", w.Name, gc, wc)
			}
		}
	}
}

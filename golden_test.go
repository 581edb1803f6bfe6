package taste

import (
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under artifacts/")

// goldenColumn is the checked-in per-column record.
type goldenColumn struct {
	Column    string    `json:"column"`
	Types     []string  `json:"types"`
	Phase     int       `json:"phase"`
	Uncertain bool      `json:"uncertain"`
	Degraded  bool      `json:"degraded"`
	Probs     []float64 `json:"probs"`
}

type goldenTable struct {
	Table   string         `json:"table"`
	Columns []goldenColumn `json:"columns"`
}

type goldenReport struct {
	TotalColumns    int           `json:"total_columns"`
	ScannedColumns  int           `json:"scanned_columns"`
	DegradedColumns int           `json:"degraded_columns"`
	Tables          []goldenTable `json:"tables"`
}

const goldenPath = "artifacts/golden_detect.json"

// TestGoldenDetect is the end-to-end determinism pin: a fixed-seed corpus,
// a tiny ADTD trained for two epochs, and a sequential detection run must
// produce byte-identical admitted types and probabilities (to 1e-6) across
// machines and commits. Regenerate with:
//
//	go test -run TestGoldenDetect -update .
//
// A diff here means something changed numerical behaviour — intentionally
// (re-pin) or not (bug).
func TestGoldenDetect(t *testing.T) {
	ds := WikiTableDataset(40, 7)
	model, err := NewModel(ds, ReproScale(), 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTrainConfig()
	cfg.Epochs = 2
	if err := Train(model, ds, cfg); err != nil {
		t.Fatal(err)
	}
	server := NewServer(NoLatency)
	server.LoadTables("golden", ds.Test)
	det, err := NewDetector(model, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := det.DetectDatabase(context.Background(), server, "golden", SequentialMode)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Errors) != 0 {
		t.Fatalf("errors: %v", rep.Errors)
	}

	got := goldenReport{
		TotalColumns:    rep.TotalColumns,
		ScannedColumns:  rep.ScannedColumns,
		DegradedColumns: rep.DegradedColumns,
	}
	for _, tr := range rep.Tables {
		gt := goldenTable{Table: tr.Table}
		for _, c := range tr.Columns {
			types := c.Admitted
			if types == nil {
				types = []string{}
			}
			gt.Columns = append(gt.Columns, goldenColumn{
				Column: c.Column, Types: types, Phase: c.Phase,
				Uncertain: c.Uncertain, Degraded: c.Degraded, Probs: c.Probs,
			})
		}
		got.Tables = append(got.Tables, gt)
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		buf, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file rewritten: %s (%d tables, %d columns)", goldenPath, len(got.Tables), got.TotalColumns)
		return
	}

	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	var want goldenReport
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}

	if got.TotalColumns != want.TotalColumns || got.ScannedColumns != want.ScannedColumns || got.DegradedColumns != want.DegradedColumns {
		t.Fatalf("headline counts drifted: got %d/%d/%d, want %d/%d/%d",
			got.TotalColumns, got.ScannedColumns, got.DegradedColumns,
			want.TotalColumns, want.ScannedColumns, want.DegradedColumns)
	}
	if len(got.Tables) != len(want.Tables) {
		t.Fatalf("tables = %d, want %d", len(got.Tables), len(want.Tables))
	}
	const tol = 1e-6
	for i, wt := range want.Tables {
		gt := got.Tables[i]
		if gt.Table != wt.Table {
			t.Fatalf("table %d: %q, want %q", i, gt.Table, wt.Table)
		}
		if len(gt.Columns) != len(wt.Columns) {
			t.Fatalf("table %s: columns %d, want %d", wt.Table, len(gt.Columns), len(wt.Columns))
		}
		for j, wc := range wt.Columns {
			gc := gt.Columns[j]
			if gc.Column != wc.Column || gc.Phase != wc.Phase || gc.Uncertain != wc.Uncertain || gc.Degraded != wc.Degraded {
				t.Fatalf("%s.%s: got {phase:%d uncertain:%v degraded:%v}, want {phase:%d uncertain:%v degraded:%v}",
					wt.Table, wc.Column, gc.Phase, gc.Uncertain, gc.Degraded, wc.Phase, wc.Uncertain, wc.Degraded)
			}
			if len(gc.Types) != len(wc.Types) {
				t.Fatalf("%s.%s: types %v, want %v", wt.Table, wc.Column, gc.Types, wc.Types)
			}
			for k := range wc.Types {
				if gc.Types[k] != wc.Types[k] {
					t.Fatalf("%s.%s: types %v, want %v", wt.Table, wc.Column, gc.Types, wc.Types)
				}
			}
			if len(gc.Probs) != len(wc.Probs) {
				t.Fatalf("%s.%s: probs length %d, want %d", wt.Table, wc.Column, len(gc.Probs), len(wc.Probs))
			}
			for k := range wc.Probs {
				if math.Abs(gc.Probs[k]-wc.Probs[k]) > tol {
					t.Fatalf("%s.%s: prob[%d] = %v, want %v (Δ > %g)", wt.Table, wc.Column, k, gc.Probs[k], wc.Probs[k], tol)
				}
			}
		}
	}
}

package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/baselines"
)

// testSuite builds a minimal suite; training is one epoch on tiny corpora
// so the tests validate the harness wiring, not model quality.
func testSuite() *Suite {
	cfg := QuickConfig()
	cfg.WikiTables = 40
	cfg.GitTables = 30
	cfg.TasteEpochs = 1
	cfg.BaselineEpochs = 1
	cfg.TunedEpochs = 1
	cfg.Repeats = 1
	cfg.LatencyScale = 0
	return NewSuite(cfg)
}

func TestTable2Shape(t *testing.T) {
	s := testSuite()
	res := s.Table2()
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d, want 8 (2 datasets × 4 splits)", len(res.Rows))
	}
	// WikiTable has no type-less columns; GitTables does.
	if res.Rows[0].PctNoType != 0 {
		t.Fatalf("wikitable all-split PctNoType = %v", res.Rows[0].PctNoType)
	}
	if res.Rows[4].PctNoType < 20 {
		t.Fatalf("gittables all-split PctNoType = %v, want ≈32", res.Rows[4].PctNoType)
	}
	if !strings.Contains(res.String(), "Table 2") {
		t.Fatal("report missing title")
	}
}

func TestDatasetMemoized(t *testing.T) {
	s := testSuite()
	if s.Dataset(Wiki) != s.Dataset(Wiki) {
		t.Fatal("dataset must be memoized")
	}
}

func TestUnknownDatasetPanics(t *testing.T) {
	s := testSuite()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Dataset("nope")
}

func TestModelsMemoized(t *testing.T) {
	s := testSuite()
	if s.TasteModel(Wiki, false) != s.TasteModel(Wiki, false) {
		t.Fatal("taste model must be memoized")
	}
	if s.TasteModel(Wiki, false) == s.TasteModel(Wiki, true) {
		t.Fatal("histogram variant must be a distinct model")
	}
	if s.BaselineModel(baselines.TURL, Wiki) != s.BaselineModel(baselines.TURL, Wiki) {
		t.Fatal("baseline model must be memoized")
	}
}

func TestRunTasteProducesMeasurements(t *testing.T) {
	s := testSuite()
	run := s.RunTaste(Wiki, DefaultTaste())
	if run.Duration <= 0 {
		t.Fatal("no duration measured")
	}
	if run.TotalColumns == 0 {
		t.Fatal("no columns processed")
	}
	if run.Errors != 0 {
		t.Fatalf("run had %d errors", run.Errors)
	}
	if r := run.ScannedRatio(); r < 0 || r > 1 {
		t.Fatalf("scanned ratio %v", r)
	}
}

func TestBaselinesScanEverything(t *testing.T) {
	s := testSuite()
	run := s.RunBaseline(Wiki, baselines.TURL, true)
	if run.ScannedRatio() != 1 {
		t.Fatalf("TURL scanned %.2f, want 1.0", run.ScannedRatio())
	}
	privacy := s.RunBaseline(Wiki, baselines.TURL, false)
	if privacy.ScannedCols != 0 {
		t.Fatal("w/o content run must not scan")
	}
}

func TestTasteWithoutP2NeverScans(t *testing.T) {
	s := testSuite()
	v := DefaultTaste()
	v.Name, v.DisableP2 = "Taste w/o P2", true
	run := s.RunTaste(Wiki, v)
	if run.ScannedCols != 0 {
		t.Fatalf("P2-disabled run scanned %d columns", run.ScannedCols)
	}
}

func TestMainRunsCachedAndComplete(t *testing.T) {
	s := testSuite()
	runs := s.MainRuns(Wiki)
	// TURL, Doduo + 5 Taste variants (privacy variant excluded).
	if len(runs) != 7 {
		t.Fatalf("main runs = %d, want 7", len(runs))
	}
	again := s.MainRuns(Wiki)
	for i := range runs {
		if runs[i] != again[i] {
			t.Fatal("main runs must be memoized")
		}
	}
	names := map[string]bool{}
	for _, r := range runs {
		names[r.Name] = true
	}
	for _, want := range []string{"TURL", "Doduo", "Taste", "Taste w/ histogram", "Taste w/o pipelining", "Taste w/o caching", "Taste w/ sampling"} {
		if !names[want] {
			t.Fatalf("missing run %q", want)
		}
	}
}

func TestFig6SweepShape(t *testing.T) {
	s := testSuite()
	res := s.Fig6([]int{20, 5})
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Sorted ascending by η, and fewer retained types ⇒ larger η.
	if res.Points[0].Eta > res.Points[1].Eta {
		t.Fatal("points must be sorted by η")
	}
	for _, p := range res.Points {
		if p.Eta <= 0 || p.Eta >= 100 {
			t.Fatalf("η = %v out of range", p.Eta)
		}
	}
}

func TestFig7PairsAndP2Gate(t *testing.T) {
	s := testSuite()
	res := s.Fig7([][2]float64{{0.5, 0.5}, {0.1, 0.9}})
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	if res.Points[0].NotScannedRatio != 1 {
		t.Fatalf("α=β must not scan, got not-scanned %v", res.Points[0].NotScannedRatio)
	}
}

func TestFig8Shapes(t *testing.T) {
	s := testSuite()
	res := s.Fig8([]int{4, 20}, []int{2, 10})
	if len(res.L) != 2 || len(res.N) != 2 {
		t.Fatalf("sweep sizes %d/%d", len(res.L), len(res.N))
	}
	if !strings.Contains(res.String(), "Fig 8(a)") || !strings.Contains(res.String(), "Fig 8(b)") {
		t.Fatal("report missing sections")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	s := testSuite()
	var buf bytes.Buffer
	if err := s.Run("figure99", &buf); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

func TestRunByName(t *testing.T) {
	s := testSuite()
	var buf bytes.Buffer
	if err := s.Run("table2", &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Table 2") {
		t.Fatal("missing report body")
	}
}

func TestRunTable7PrintsEveryPhase(t *testing.T) {
	s := testSuite()
	var buf bytes.Buffer
	if err := s.Run("table7", &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Table 7") {
		t.Fatalf("report missing title:\n%s", out)
	}
	for _, phase := range []string{"s1", "s2", "s3", "s4"} {
		if !strings.Contains(out, "\n"+phase+" ") {
			t.Fatalf("report missing the %s row:\n%s", phase, out)
		}
	}
}

func TestOptionsFromVariant(t *testing.T) {
	s := testSuite()
	v := DefaultTaste()
	v.Hist, v.Sampling, v.SplitL, v.CellsN = true, true, 8, 4
	opts := s.options(v)
	if !opts.UseHistogram || opts.SplitThreshold != 8 || opts.CellsPerColumn != 4 {
		t.Fatalf("options not applied: %+v", opts)
	}
	v2 := DefaultTaste()
	v2.Alpha, v2.Beta = 0.3, 0.7
	opts2 := s.options(v2)
	if opts2.Alpha != 0.3 || opts2.Beta != 0.7 {
		t.Fatal("threshold override not applied")
	}
	v3 := DefaultTaste()
	v3.Cache = false
	if s.options(v3).CacheBytes != 0 {
		t.Fatal("cache disable not applied")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := QuickConfig()
	cfg.WikiTables = 40
	cfg.TasteEpochs = 1
	cfg.CheckpointDir = dir
	s := NewSuite(cfg)
	m1 := s.TasteModel(Wiki, false)
	// A fresh suite with the same config must load the checkpoint and
	// produce identical parameters.
	s2 := NewSuite(cfg)
	m2 := s2.TasteModel(Wiki, false)
	p1, p2 := m1.Params(), m2.Params()
	for i := range p1 {
		for j := range p1[i].Data {
			if p1[i].Data[j] != p2[i].Data[j] {
				t.Fatal("checkpoint load produced different parameters")
			}
		}
	}
}

func TestLrAtSchedule(t *testing.T) {
	if lrAt(1e-3, 0, 0, 4) != 1e-3 {
		t.Fatal("no decay when FinalLR unset")
	}
	first := lrAt(1e-3, 1e-4, 0, 4)
	last := lrAt(1e-3, 1e-4, 4, 4)
	if first != 1e-3 {
		t.Fatalf("first stage LR = %v", first)
	}
	if last < 0.9e-4 || last > 1.1e-4 {
		t.Fatalf("final stage LR = %v", last)
	}
}

func TestExtrasShape(t *testing.T) {
	s := testSuite()
	res := s.Extras()
	for _, ds := range []string{Wiki, Git} {
		runs := res.Runs[ds]
		if len(runs) != 3 {
			t.Fatalf("%s: runs = %d, want 3", ds, len(runs))
		}
		rules, sherlock := runs[0], runs[1]
		if rules.Name != "Rules (regex+dict)" || sherlock.Name != "Sherlock (features)" {
			t.Fatalf("unexpected run names: %s / %s", rules.Name, sherlock.Name)
		}
		// Both traditional baselines must scan everything.
		if rules.ScannedRatio() != 1 || sherlock.ScannedRatio() != 1 {
			t.Fatalf("%s: traditional baselines must scan 100%%", ds)
		}
		// Rules are high-precision on pattern types even untrained.
		if rules.Precision < 0.5 {
			t.Fatalf("%s: rule precision %.3f too low", ds, rules.Precision)
		}
	}
	if !strings.Contains(res.String(), "Extras") {
		t.Fatal("report missing title")
	}
}

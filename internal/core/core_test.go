package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/adtd"
	"repro/internal/corpus"
	"repro/internal/metafeat"
	"repro/internal/metrics"
	"repro/internal/simdb"
)

// trained caches one trained tiny model + dataset per test binary.
var trained struct {
	once  sync.Once
	model *adtd.Model
	ds    *corpus.Dataset
	err   error
}

func trainedModel(t *testing.T) (*adtd.Model, *corpus.Dataset) {
	t.Helper()
	trained.once.Do(func() {
		// A WikiTable-like profile with a slice of type-less columns so
		// that even a briefly trained model resolves some columns in P1
		// (the background class is frequent and saturates quickly).
		profile := corpus.WikiTableProfile(150)
		profile.NullRate = 0.15
		ds := corpus.Generate(corpus.DefaultRegistry(), profile, 1)
		tok := adtd.BuildVocabulary(ds.Train, ds.Registry.Names(), 3000)
		types := adtd.NewTypeSpace(ds.Registry.Names())
		m, err := adtd.New(adtd.ReproScale(), tok, types, 11)
		if err != nil {
			trained.err = err
			return
		}
		tcfg := adtd.DefaultTrainConfig()
		tcfg.Epochs = 14
		tcfg.LR, tcfg.FinalLR = 1.5e-3, 4e-4
		tcfg.PosWeight = 6
		tcfg.WeightDecay = 1e-4
		tcfg.Cells = 6
		tcfg.ContentColumnsPerChunk = 4
		if _, err := adtd.FineTune(m, ds.Train, tcfg); err != nil {
			trained.err = err
			return
		}
		trained.model, trained.ds = m, ds
	})
	if trained.err != nil {
		t.Fatal(trained.err)
	}
	return trained.model, trained.ds
}

func newServer(ds *corpus.Dataset) *simdb.Server {
	s := simdb.NewServer(simdb.NoLatency)
	s.LoadTables("tenant", ds.Test)
	return s
}

func truthMap(tables []*corpus.Table) map[string][]string {
	m := make(map[string][]string)
	for _, t := range tables {
		for _, c := range t.Columns {
			m[t.Name+"."+c.Name] = c.Labels
		}
	}
	return m
}

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultOptions()
	bad.Alpha, bad.Beta = 0.9, 0.1
	if bad.Validate() == nil {
		t.Fatal("α > β must fail validation")
	}
	bad = DefaultOptions()
	bad.RowsToRead = 0
	if bad.Validate() == nil {
		t.Fatal("m=0 must fail")
	}
	bad = DefaultOptions()
	bad.AdmitThreshold = 1.5
	if bad.Validate() == nil {
		t.Fatal("bad admit threshold must fail")
	}
}

func TestP2Disabled(t *testing.T) {
	o := DefaultOptions()
	if o.P2Disabled() {
		t.Fatal("default options must enable P2")
	}
	o.Alpha, o.Beta = 0.5, 0.5
	if !o.P2Disabled() {
		t.Fatal("α == β must disable P2")
	}
}

func TestNewDetectorRejectsBadOptions(t *testing.T) {
	m, _ := trainedModel(t)
	bad := DefaultOptions()
	bad.Alpha = -1
	if _, err := NewDetector(m, bad); err == nil {
		t.Fatal("expected error")
	}
}

func TestDetectTableProducesResults(t *testing.T) {
	m, ds := trainedModel(t)
	d, err := NewDetector(m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(ds)
	conn, err := s.Connect(context.Background(), "tenant")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	src := ds.Test[0]
	res, err := d.DetectTable(context.Background(), conn, "tenant", src.Name)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table != src.Name || len(res.Columns) != len(src.Columns) {
		t.Fatalf("result mismatch: %+v", res)
	}
	for i, c := range res.Columns {
		if c.Column != src.Columns[i].Name {
			t.Fatalf("column %d name mismatch", i)
		}
		if c.Phase != 1 && c.Phase != 2 {
			t.Fatalf("bad phase %d", c.Phase)
		}
		if c.Phase == 2 && !c.Uncertain {
			t.Fatal("phase 2 implies uncertain")
		}
		for _, typ := range c.Admitted {
			if typ == corpus.NullType {
				t.Fatal("background type must never be admitted")
			}
		}
	}
}

func TestDetectDatabaseSequentialVsPipelinedSameAnswers(t *testing.T) {
	m, ds := trainedModel(t)
	d, _ := NewDetector(m, DefaultOptions())
	s1 := newServer(ds)
	seq, err := d.DetectDatabase(context.Background(), s1, "tenant", SequentialMode)
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := NewDetector(m, DefaultOptions())
	s2 := newServer(ds)
	pipe, err := d2.DetectDatabase(context.Background(), s2, "tenant", PipelinedMode())
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Errors) > 0 || len(pipe.Errors) > 0 {
		t.Fatalf("errors: %v / %v", seq.Errors, pipe.Errors)
	}
	if seq.TotalColumns != pipe.TotalColumns || seq.ScannedColumns != pipe.ScannedColumns {
		t.Fatalf("pipelining changed outcomes: %d/%d vs %d/%d",
			seq.TotalColumns, seq.ScannedColumns, pipe.TotalColumns, pipe.ScannedColumns)
	}
	for _, tr := range seq.Tables {
		for _, c := range tr.Columns {
			pc := pipe.Find(tr.Table, c.Column)
			if pc == nil {
				t.Fatalf("pipelined run missing %s.%s", tr.Table, c.Column)
			}
			if strings.Join(pc.Admitted, ",") != strings.Join(c.Admitted, ",") {
				t.Fatalf("admitted types differ for %s.%s", tr.Table, c.Column)
			}
		}
	}
}

func TestTrainedDetectorBeatsChance(t *testing.T) {
	m, ds := trainedModel(t)
	d, _ := NewDetector(m, DefaultOptions())
	rep, err := d.DetectDatabase(context.Background(), newServer(ds), "tenant", SequentialMode)
	if err != nil {
		t.Fatal(err)
	}
	truth := truthMap(ds.Test)
	acc := metrics.NewF1Accumulator()
	for _, tr := range rep.Tables {
		for _, c := range tr.Columns {
			acc.Add(c.Admitted, truth[tr.Table+"."+c.Column])
		}
	}
	if f1 := acc.F1(); f1 < 0.6 {
		t.Fatalf("trained detector F1 = %v, want ≥ 0.6 (tiny training run)", f1)
	}
}

func TestP2DisabledNeverScans(t *testing.T) {
	m, ds := trainedModel(t)
	opts := DefaultOptions()
	opts.Alpha, opts.Beta = 0.5, 0.5
	d, _ := NewDetector(m, opts)
	s := newServer(ds)
	rep, err := d.DetectDatabase(context.Background(), s, "tenant", SequentialMode)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ScannedColumns != 0 || rep.UncertainColumns != 0 {
		t.Fatalf("strict privacy mode scanned %d columns", rep.ScannedColumns)
	}
	if snap := s.Accounting().Snapshot(); snap.ColumnsScanned != 0 {
		t.Fatalf("database saw %d scanned columns", snap.ColumnsScanned)
	}
	for _, tr := range rep.Tables {
		for _, c := range tr.Columns {
			if c.Phase != 1 {
				t.Fatal("all columns must resolve in phase 1")
			}
		}
	}
}

func TestOnlyUncertainColumnsScanned(t *testing.T) {
	m, ds := trainedModel(t)
	d, _ := NewDetector(m, DefaultOptions())
	s := newServer(ds)
	rep, err := d.DetectDatabase(context.Background(), s, "tenant", SequentialMode)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ScannedColumns != rep.UncertainColumns {
		t.Fatalf("scanned %d but uncertain %d", rep.ScannedColumns, rep.UncertainColumns)
	}
	snap := s.Accounting().Snapshot()
	if snap.DistinctColsScanned != rep.ScannedColumns {
		t.Fatalf("ledger says %d distinct scans, report says %d", snap.DistinctColsScanned, rep.ScannedColumns)
	}
	// A trained WikiTable-profile model must scan some but far from all.
	if rep.ScannedColumns == 0 || rep.ScannedColumns == rep.TotalColumns {
		t.Fatalf("scanned %d of %d columns — expected partial scanning", rep.ScannedColumns, rep.TotalColumns)
	}
}

func TestWiderBandScansMore(t *testing.T) {
	m, ds := trainedModel(t)
	narrow := DefaultOptions()
	narrow.Alpha, narrow.Beta = 0.4, 0.6
	wide := DefaultOptions()
	wide.Alpha, wide.Beta = 0.02, 0.98

	dn, _ := NewDetector(m, narrow)
	repN, err := dn.DetectDatabase(context.Background(), newServer(ds), "tenant", SequentialMode)
	if err != nil {
		t.Fatal(err)
	}
	dw, _ := NewDetector(m, wide)
	repW, err := dw.DetectDatabase(context.Background(), newServer(ds), "tenant", SequentialMode)
	if err != nil {
		t.Fatal(err)
	}
	if repW.ScannedColumns < repN.ScannedColumns {
		t.Fatalf("wider (α,β) should scan at least as much: wide %d < narrow %d",
			repW.ScannedColumns, repN.ScannedColumns)
	}
}

func TestLatentCacheUsedByP2(t *testing.T) {
	m, ds := trainedModel(t)
	d, _ := NewDetector(m, DefaultOptions())
	rep, err := d.DetectDatabase(context.Background(), newServer(ds), "tenant", SequentialMode)
	if err != nil {
		t.Fatal(err)
	}
	if rep.UncertainColumns > 0 && rep.CacheHits == 0 {
		t.Fatal("P2 ran but never hit the latent cache")
	}
	if rep.CacheMisses != 0 {
		t.Fatalf("same-batch P2 should always hit, got %d misses", rep.CacheMisses)
	}
}

func TestCacheDisabledStillCorrect(t *testing.T) {
	m, ds := trainedModel(t)
	withCache := DefaultOptions()
	noCache := DefaultOptions()
	noCache.CacheBytes = 0
	noCache.ResultCacheBytes = 0

	d1, _ := NewDetector(m, withCache)
	rep1, err := d1.DetectDatabase(context.Background(), newServer(ds), "tenant", SequentialMode)
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := NewDetector(m, noCache)
	rep2, err := d2.DetectDatabase(context.Background(), newServer(ds), "tenant", SequentialMode)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.CacheHits != 0 {
		t.Fatal("disabled cache must never hit")
	}
	for _, tr := range rep1.Tables {
		for _, c := range tr.Columns {
			c2 := rep2.Find(tr.Table, c.Column)
			if strings.Join(c.Admitted, ",") != strings.Join(c2.Admitted, ",") {
				t.Fatalf("caching changed results for %s.%s", tr.Table, c.Column)
			}
		}
	}
}

// TestHistogramVariantRunsAnalyze: a bulk detect reads every table's
// metadata in one schema query, and ANALYZE replies with the metadata it
// refreshed, so in either mode a cold table costs exactly one ANALYZE and no
// metadata read of its own, and a second pass, statistics in place, costs
// the schema read alone.
func TestHistogramVariantRunsAnalyze(t *testing.T) {
	m, ds := trainedModel(t)
	opts := DefaultOptions()
	opts.UseHistogram = true
	tables := len(ds.Test)
	// metaQueries runs one detect and returns the queries it spent on
	// anything but scans.
	metaQueries := func(s *simdb.Server, mode ExecMode) int {
		t.Helper()
		d, err := NewDetector(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		before := s.Accounting().Snapshot().Queries
		rep, err := d.DetectDatabase(context.Background(), s, "tenant", mode)
		if err != nil || len(rep.Errors) != 0 {
			t.Fatalf("detect: %v %v", err, rep.Errors)
		}
		scans := 0
		for _, tr := range rep.Tables {
			if tr.ScannedColumns > 0 {
				scans++
			}
		}
		return s.Accounting().Snapshot().Queries - before - scans
	}
	for _, mode := range []ExecMode{SequentialMode, PipelinedMode()} {
		s := newServer(ds)
		if got := metaQueries(s, mode); got != 1+tables {
			t.Fatalf("pipelined=%v, cold pass: %d metadata queries for %d tables, want %d (the schema read, one ANALYZE a table)",
				mode.Pipelined, got, tables, 1+tables)
		}
		if got := metaQueries(s, mode); got != 1 {
			t.Fatalf("pipelined=%v, analyzed pass: %d metadata queries, want the schema read alone", mode.Pipelined, got)
		}
	}
}

func TestSamplingStrategyApplied(t *testing.T) {
	m, ds := trainedModel(t)
	opts := DefaultOptions()
	opts.Strategy = simdb.RandomSample
	d, _ := NewDetector(m, opts)
	rep, err := d.DetectDatabase(context.Background(), newServer(ds), "tenant", SequentialMode)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Errors) > 0 {
		t.Fatalf("sampling run failed: %v", rep.Errors)
	}
}

func TestReportScannedRatio(t *testing.T) {
	r := &Report{TotalColumns: 200, ScannedColumns: 90}
	if r.ScannedRatio() != 0.45 {
		t.Fatalf("ratio = %v", r.ScannedRatio())
	}
	empty := &Report{}
	if empty.ScannedRatio() != 0 {
		t.Fatal("empty report ratio must be 0")
	}
}

func TestDetectDatabaseUnknownDB(t *testing.T) {
	m, _ := trainedModel(t)
	d, _ := NewDetector(m, DefaultOptions())
	if _, err := d.DetectDatabase(context.Background(), simdb.NewServer(simdb.NoLatency), "ghost", SequentialMode); err == nil {
		t.Fatal("expected error")
	}
}

func TestFeedbackRecordedAndApplied(t *testing.T) {
	m, ds := trainedModel(t)
	d, _ := NewDetector(m, DefaultOptions())
	info := metafeat.FromCorpusTable(ds.Test[0], false, 0)
	if err := d.Feedback(info, 0, []string{"email"}); err != nil {
		t.Fatal(err)
	}
	if len(d.FeedbackLog()) != 1 {
		t.Fatal("feedback not recorded")
	}
	if err := d.Feedback(info, 999, nil); err == nil {
		t.Fatal("out-of-range column must error")
	}
}

func TestRegisterTypesExtendsModel(t *testing.T) {
	m, ds := trainedModel(t)
	d, _ := NewDetector(m, DefaultOptions())
	before := m.Types.Len()
	err := d.RegisterTypes(ds.Registry, []*corpus.Type{{
		Name:        "custom_tracking_code",
		Category:    "identifier",
		SQLType:     "VARCHAR",
		ColumnNames: []string{"tracking_code"},
		Gen:         func(r *rand.Rand) string { return fmt.Sprintf("trk-%06d", r.Intn(1000000)) },
	}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Types.Len() != before+1 {
		t.Fatalf("type space len = %d, want %d", m.Types.Len(), before+1)
	}
	if _, ok := m.Types.Index("custom_tracking_code"); !ok {
		t.Fatal("new type missing from type space")
	}
	// Duplicate registration must fail cleanly.
	if err := d.RegisterTypes(ds.Registry, []*corpus.Type{{
		Name: "custom_tracking_code", Category: "identifier", SQLType: "VARCHAR",
		ColumnNames: []string{"x"}, Gen: func(r *rand.Rand) string { return "x" },
	}}); err == nil {
		t.Fatal("duplicate registration should error")
	}
}

func TestCalibrateThresholds(t *testing.T) {
	m, ds := trainedModel(t)
	truth := truthMap(ds.Test)
	res, err := CalibrateThresholds(context.Background(), m, newServer(ds), "tenant", truth, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frontier) != 7 {
		t.Fatalf("frontier has %d points", len(res.Frontier))
	}
	if res.Chosen.ScannedRatio > 0.5 {
		t.Fatalf("chosen pair violates scan budget: %.2f", res.Chosen.ScannedRatio)
	}
	// Frontier is ordered by widening band; scanned ratio must be
	// non-decreasing along it.
	for i := 1; i < len(res.Frontier); i++ {
		if res.Frontier[i].ScannedRatio+1e-9 < res.Frontier[i-1].ScannedRatio {
			t.Fatalf("scanned ratio not monotone along widening bands: %v then %v",
				res.Frontier[i-1].ScannedRatio, res.Frontier[i].ScannedRatio)
		}
	}
	// The narrowest band never scans.
	if res.Frontier[0].ScannedRatio != 0 {
		t.Fatalf("α=β point scanned %.2f", res.Frontier[0].ScannedRatio)
	}
	if _, err := CalibrateThresholds(context.Background(), m, newServer(ds), "tenant", truth, 1.5); err == nil {
		t.Fatal("expected error for invalid budget")
	}
}

func TestScanFaultDoesNotAbortBatch(t *testing.T) {
	m, ds := trainedModel(t)
	d, _ := NewDetector(m, DefaultOptions())
	s := newServer(ds)
	// Arm a permanent (non-transient) fault on every test table's scan; only
	// tables that actually reach P2 will trip it. Permanent scan failures
	// degrade the affected columns to Phase 1 instead of erroring the table.
	for _, tb := range ds.Test {
		s.InjectScanFault(tb.Name, fmt.Errorf("simulated network failure"))
	}
	rep, err := d.DetectDatabase(context.Background(), s, "tenant", SequentialMode)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Errors) != 0 {
		t.Fatalf("scan faults must degrade, not error: %v", rep.Errors)
	}
	if len(rep.Tables) != len(ds.Test) {
		t.Fatalf("tables = %d, want %d", len(rep.Tables), len(ds.Test))
	}
	if rep.DegradedColumns == 0 {
		t.Skip("no table reached P2 in this run")
	}
	for _, tr := range rep.Tables {
		for _, c := range tr.Columns {
			if c.Degraded && !strings.Contains(c.DegradeReason, "simulated network failure") {
				t.Fatalf("column %s.%s: reason %q", tr.Table, c.Column, c.DegradeReason)
			}
		}
	}
}

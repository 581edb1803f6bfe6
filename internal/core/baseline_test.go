package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/adtd"
	"repro/internal/corpus"
	"repro/internal/metafeat"
)

// fakeBaseline is a Baseline with fixed answers: each column's row admits
// one type picked by its name, for at most maxRows columns of a chunk, as a
// baseline whose input truncates past its length would.
type fakeBaseline struct {
	t       *testing.T
	ts      *adtd.TypeSpace
	maxRows int
	// content is the withContent every call must pass.
	content bool
}

func (f *fakeBaseline) TypeSpace() *adtd.TypeSpace { return f.ts }

func (f *fakeBaseline) Predict(chunk *metafeat.TableInfo, n int, withContent bool) [][]float64 {
	if withContent != f.content {
		f.t.Errorf("%s: Predict withContent=%v, want %v", chunk.Name, withContent, f.content)
	}
	rows := make([][]float64, min(len(chunk.Columns), f.maxRows))
	for i := range rows {
		c := chunk.Columns[i]
		if withContent && len(c.Values) == 0 {
			f.t.Errorf("%s.%s: predicted from content before its scan", chunk.Name, c.Name)
		}
		rows[i] = make([]float64, f.ts.Len())
		rows[i][f.typeOf(c.Name)] = 0.9
	}
	return rows
}

// typeOf is the type index the fake admits for a column.
func (f *fakeBaseline) typeOf(column string) int { return 1 + len(column)%(f.ts.Len()-1) }

// baselineFixture builds a fake-baseline detector over 3-column tables split
// into chunks of 2 and 1 columns, with both cache tiers enabled. The fake
// answers one column per chunk, so each table's first chunk has fewer rows
// than columns.
func baselineFixture(t *testing.T, withContent bool) (*Detector, *fakeBaseline, []*corpus.Table) {
	t.Helper()
	ds := corpus.Generate(corpus.DefaultRegistry(), corpus.SmallTablesProfile(8), 3)
	fake := &fakeBaseline{t: t, ts: adtd.NewTypeSpace(ds.Registry.Names()), maxRows: 1, content: withContent}
	opts := DefaultOptions()
	opts.SplitThreshold = 2
	opts.ResultCacheBytes = 1 << 20
	if !withContent {
		opts.Alpha, opts.Beta = 0.5, 0.5
	}
	det, err := NewBaselineDetector(fake, opts)
	if err != nil {
		t.Fatal(err)
	}
	return det, fake, allTables(ds)
}

// TestBaselineSeam drives s2 and s4's classifier seam with a fake
// baseline: Phase 1 defers every column, one scan per table reads them all,
// Phase 2 answers from the fake's rows (a column without a row gets no
// types), nothing enters the latent or result tier, both modes answer the
// same bytes, and a failing scan degrades its table's columns.
func TestBaselineSeam(t *testing.T) {
	det, fake, tables := baselineFixture(t, true)
	if det.Model() != nil {
		t.Fatal("a baseline detector has no ADTD model")
	}
	var answers [2][]byte
	for i, mode := range []ExecMode{SequentialMode, PipelinedMode()} {
		server := newServerWith(tables)
		rep, err := det.DetectDatabase(context.Background(), server, "tenant", mode)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Errors) != 0 || len(rep.Tables) != len(tables) {
			t.Fatalf("mode %+v: %d tables answered of %d, errors %v", mode, len(rep.Tables), len(tables), rep.Errors)
		}
		ledger := server.Accounting().Snapshot()
		if ledger.Queries != 1+len(tables) || ledger.ColumnsScanned != rep.TotalColumns ||
			ledger.DistinctColsScanned != rep.TotalColumns || rep.ScannedColumns != rep.TotalColumns {
			t.Fatalf("mode %+v: %d queries, %d columns scanned (%d distinct) of %d, want one schema read and one scan per table covering every column",
				mode, ledger.Queries, ledger.ColumnsScanned, ledger.DistinctColsScanned, rep.TotalColumns)
		}
		for _, tr := range rep.Tables {
			for ci, c := range tr.Columns {
				if !c.Uncertain || !c.Scanned || c.Phase != 2 || c.Degraded {
					t.Fatalf("%s.%s: uncertain=%v scanned=%v phase=%d degraded=%v, want a scanned Phase-2 answer",
						tr.Table, c.Column, c.Uncertain, c.Scanned, c.Phase, c.Degraded)
				}
				// Chunks are columns {0, 1} and {2}; the fake answers the
				// first column of each.
				want := []string{fake.ts.Name(fake.typeOf(c.Column))}
				if ci == 1 {
					want = nil
				}
				if !equalTypes(c.Admitted, want) || (c.Probs == nil) != (want == nil) {
					t.Fatalf("%s.%s: admitted %v (probs %d), want %v", tr.Table, c.Column, c.Admitted, len(c.Probs), want)
				}
			}
		}
		if n := det.Cache().Len() + det.Results().Len(); n != 0 {
			t.Fatalf("mode %+v: %d cache entries written", mode, n)
		}
		if answers[i], err = json.Marshal(rep.Tables); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(answers[0], answers[1]) {
		t.Fatalf("pipelined answers differ from sequential:\n%s\n%s", answers[0], answers[1])
	}

	server := newServerWith(tables)
	victim := tables[0].Name
	server.InjectScanFault(victim, errors.New("disk on fire"))
	rep, err := det.DetectDatabase(context.Background(), server, "tenant", PipelinedMode())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != len(tables) || rep.DegradedColumns != len(tables[0].Columns) {
		t.Fatalf("%d tables answered, %d columns degraded, want %d and %d", len(rep.Tables), rep.DegradedColumns, len(tables), len(tables[0].Columns))
	}
	for _, tr := range rep.Tables {
		for _, c := range tr.Columns {
			if (tr.Table == victim) != c.Degraded {
				t.Fatalf("%s.%s: degraded=%v", tr.Table, c.Column, c.Degraded)
			}
			if c.Degraded && (c.Phase != 1 || c.Admitted != nil || !strings.Contains(c.DegradeReason, "content scan failed: disk on fire")) {
				t.Fatalf("%s.%s: phase %d, admitted %v, reason %q", tr.Table, c.Column, c.Phase, c.Admitted, c.DegradeReason)
			}
		}
	}
}

// TestBaselineSeamWithoutContent: with α = β the fake's Phase 1 answers from
// the metadata alone and nothing is scanned.
func TestBaselineSeamWithoutContent(t *testing.T) {
	det, fake, tables := baselineFixture(t, false)
	server := newServerWith(tables)
	rep, err := det.DetectDatabase(context.Background(), server, "tenant", SequentialMode)
	if err != nil {
		t.Fatal(err)
	}
	if got := server.Accounting().Snapshot(); got.Queries != 1 || got.ColumnsScanned != 0 || rep.ScannedColumns != 0 {
		t.Fatalf("%d queries, %d columns scanned, want the schema read alone", got.Queries, got.ColumnsScanned)
	}
	for _, tr := range rep.Tables {
		for ci, c := range tr.Columns {
			want := []string{fake.ts.Name(fake.typeOf(c.Column))}
			if ci == 1 {
				want = nil
			}
			if c.Phase != 1 || c.Uncertain || !equalTypes(c.Admitted, want) {
				t.Fatalf("%s.%s: phase %d uncertain=%v admitted %v, want %v", tr.Table, c.Column, c.Phase, c.Uncertain, c.Admitted, want)
			}
		}
	}
}

func equalTypes(a, b []string) bool {
	return strings.Join(a, ",") == strings.Join(b, ",") && (a == nil) == (b == nil)
}

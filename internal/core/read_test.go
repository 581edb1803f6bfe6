package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/simdb"
)

// execModes are the two ways a detect runs.
var execModes = []ExecMode{SequentialMode, {Pipelined: true}}

// TestDetectDatabaseOnScansOnlyWhatPhase2Uses: with the request deadline
// inside DeadlineMargin, Phase 2 starts for no table, so no content is worth
// reading. In both modes every uncertain column keeps its Phase-1 answer,
// degraded "deadline imminent", and the tenant sees the one schema query and
// no scanned column. Without a deadline, the columns the tenant exposed are
// exactly the ones the report counts as scanned.
func TestDetectDatabaseOnScansOnlyWhatPhase2Uses(t *testing.T) {
	for _, mode := range execModes {
		t.Run(fmt.Sprintf("pipelined=%v", mode.Pipelined), func(t *testing.T) {
			det, ds := phase2Detector(t, 20)
			det.Opts.DeadlineMargin = time.Hour
			server := newServerWith(allTables(ds))
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Minute)
			defer cancel()
			conn, err := server.Connect(ctx, "tenant")
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			rep, err := det.Detect(ctx, Request{Conn: conn, DBName: "tenant", Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Errors) != 0 || rep.UncertainColumns == 0 {
				t.Fatalf("errors=%v uncertain=%d: the fixture must answer every table with uncertain columns", rep.Errors, rep.UncertainColumns)
			}
			for _, tr := range rep.Tables {
				for _, c := range tr.Columns {
					if c.Uncertain && (!c.Degraded || c.DegradeReason != errDeadlineImminent.Error()) {
						t.Fatalf("%s.%s: degraded=%v reason=%q, want %q", tr.Table, c.Column, c.Degraded, c.DegradeReason, errDeadlineImminent)
					}
				}
			}
			got := server.Accounting().Snapshot()
			if got.Queries != 1 || got.ColumnsScanned != 0 {
				t.Fatalf("tenant ledger: %d queries, %d columns scanned; want the schema read alone", got.Queries, got.ColumnsScanned)
			}
		})
	}
	for _, mode := range execModes {
		t.Run(fmt.Sprintf("no deadline/pipelined=%v", mode.Pipelined), func(t *testing.T) {
			det, ds := phase2Detector(t, 20)
			server := newServerWith(allTables(ds))
			rep, err := det.DetectDatabase(context.Background(), server, "tenant", mode)
			if err != nil {
				t.Fatal(err)
			}
			if rep.ScannedColumns == 0 {
				t.Fatal("fixture scanned nothing")
			}
			if got := server.Accounting().Snapshot().ColumnsScanned; got != rep.ScannedColumns {
				t.Fatalf("tenant ledger scanned %d columns, report says %d", got, rep.ScannedColumns)
			}
		})
	}
}

// TestPipelinedPrefetchHitsEveryRead is the regression test for the
// LIFO-versus-lookahead bug: workers used to start at the far end of the
// table list while the lookahead read the near end, so most reads were
// synchronous sleeps on a worker that no counter saw. Every scan of a
// pipelined detect is now a read stage that taste_pipeline_prefetch_total
// counts, the whole batch's metadata is one schema query, and the answers
// equal the sequential ones.
func TestPipelinedPrefetchHitsEveryRead(t *testing.T) {
	det, ds := phase2Detector(t, 32)
	tables := allTables(ds)
	server := simdb.NewServer(simdb.PaperLatency(20))
	server.LoadTables("tenant", tables)
	hits := scanReads.Value()
	rep, err := det.DetectDatabase(context.Background(), server, "tenant", ExecMode{Pipelined: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Errors) != 0 || len(rep.Tables) != len(tables) {
		t.Fatalf("tables=%d errors=%v", len(rep.Tables), rep.Errors)
	}
	scanned := 0
	for _, tr := range rep.Tables {
		if tr.ScannedColumns > 0 {
			scanned++
		}
	}
	if scanned == 0 {
		t.Fatal("fixture scanned nothing: the test cannot see scan reads")
	}
	if got := int(scanReads.Value() - hits); got != scanned {
		t.Fatalf("scan hits rose by %d, want %d (every scan)", got, scanned)
	}
	// Ledger: one query per scan, the rest is metadata.
	if metaQueries := server.Accounting().Snapshot().Queries - scanned; metaQueries != 1 {
		t.Fatalf("%d metadata queries for %d tables, want the one schema read", metaQueries, len(tables))
	}

	// Same tenant, no latency, sequential: identical answers.
	ref, _ := phase2Detector(t, 32)
	seq, err := ref.DetectDatabase(context.Background(), newServerWith(tables), "tenant", SequentialMode)
	if err != nil {
		t.Fatal(err)
	}
	if canonTables(t, seq) != canonTables(t, rep) {
		t.Fatal("pipelined results differ from the sequential reference")
	}
}

// TestDetectDatabaseOnCancelMidReadNoLeak: cancelling a full pipelined
// DetectDatabase run while reads are on the wire must abort with
// context.Canceled and wind every read and worker down.
func TestDetectDatabaseOnCancelMidReadNoLeak(t *testing.T) {
	det, ds := phase2Detector(t, 30)
	// Scale 10 → 100 ms connect, 50 ms per query, 40 ms to transfer a scan:
	// connect, the schema read and the first scans alone take over 240 ms,
	// so a cancel at 200 ms is guaranteed to land mid-run.
	server := simdb.NewServer(simdb.PaperLatency(10))
	server.LoadTables("tenant", allTables(ds))
	mode := ExecMode{Pipelined: true}

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(200 * time.Millisecond)
		cancel()
	}()
	rep, err := det.DetectDatabase(ctx, server, "tenant", mode)
	cancel()
	switch {
	case err != nil:
		// Cancel landed before the jobs ran (connect/list): whole-batch abort.
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	default:
		// Mid-run cancel: abandoned tables carry the context error per-job
		// (the seed's contract), and the batch cannot have completed.
		found := false
		for _, e := range rep.Errors {
			if errors.Is(e, context.Canceled) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("mid-run cancel left no per-table context errors: %v", rep.Errors)
		}
		if len(rep.Tables) == 30 {
			t.Fatal("every table completed despite the cancel")
		}
	}
	waitGoroutines(t, before)
}

// sparseTables copies tables with cells blanked in a fixed pattern: of every
// three columns one keeps a cell in seven (fewer than n non-empty cells in
// the m-row window), one keeps every other cell, one is left as generated.
func sparseTables(tables []*corpus.Table) []*corpus.Table {
	out := make([]*corpus.Table, len(tables))
	for ti, tb := range tables {
		cp := *tb
		cp.Columns = make([]*corpus.Column, len(tb.Columns))
		for ci, c := range tb.Columns {
			col := *c
			col.Values = slices.Clone(c.Values)
			keep := []int{7, 2, 1}[(ti+ci)%3]
			for r := range col.Values {
				if r%keep != 0 {
					col.Values[r] = ""
				}
			}
			cp.Columns[ci] = &col
		}
		out[ti] = &cp
	}
	return out
}

// TestScanShipsVisibleCells: a Phase-2 scan ships each scanned column's
// first n non-empty cells of the m-row window and nothing else, so the
// tenant's CellsRead is the sum over the scanned columns of min(n, the
// window's non-empty cells), in both modes, with one scan query per table
// that reached Phase 2; and the answers are the same bytes in both modes.
func TestScanShipsVisibleCells(t *testing.T) {
	det, ds := phase2Detector(t, 12)
	tables := sparseTables(allTables(ds))
	byName := make(map[string]*corpus.Table, len(tables))
	for _, tb := range tables {
		byName[tb.Name] = tb
	}
	n, m := det.Opts.CellsPerColumn, det.Opts.RowsToRead
	var answers [2][]byte
	for i, mode := range execModes {
		server := newServerWith(tables)
		rep, err := det.DetectDatabase(context.Background(), server, "tenant", mode)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Errors) != 0 || rep.DegradedColumns != 0 {
			t.Fatalf("pipelined=%v: errors %v, %d degraded", mode.Pipelined, rep.Errors, rep.DegradedColumns)
		}
		want, short, scans := 0, 0, 0
		for _, tr := range rep.Tables {
			if tr.ScannedColumns > 0 {
				scans++
			}
			for _, cr := range tr.Columns {
				if !cr.Scanned {
					continue
				}
				nonEmpty := 0
				for _, c := range byName[tr.Table].Columns {
					if c.Name != cr.Column {
						continue
					}
					for _, v := range c.Values[:min(m, len(c.Values))] {
						if v != "" {
							nonEmpty++
						}
					}
				}
				if nonEmpty < n {
					short++
				}
				want += min(n, nonEmpty)
			}
		}
		if short == 0 || rep.ScannedColumns == 0 {
			t.Fatalf("pipelined=%v: %d scanned columns, %d with fewer than n cells: test is vacuous", mode.Pipelined, rep.ScannedColumns, short)
		}
		snap := server.Accounting().Snapshot()
		if snap.CellsRead != want {
			t.Fatalf("pipelined=%v: CellsRead %d, want %d (the visible cells of %d scanned columns)", mode.Pipelined, snap.CellsRead, want, rep.ScannedColumns)
		}
		if snap.ColumnsScanned != rep.ScannedColumns || snap.Queries != 1+scans {
			t.Fatalf("pipelined=%v: %d columns in %d queries, want %d in 1 schema read + %d scans", mode.Pipelined, snap.ColumnsScanned, snap.Queries, rep.ScannedColumns, scans)
		}
		if answers[i], err = json.Marshal(rep.Tables); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(answers[0], answers[1]) {
		t.Fatal("the pipelined answers differ from the sequential ones")
	}
}

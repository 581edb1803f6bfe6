package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

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
			rep, err := det.DetectDatabaseOn(ctx, conn, "tenant", nil, mode)
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

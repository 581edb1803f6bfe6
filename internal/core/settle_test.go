package core

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/pipeline"
	"repro/internal/simdb"
)

// stageWrap replaces a stage's Run, given the real one.
type stageWrap func(run func(context.Context) error) func(context.Context) error

// wrappedRunner runs a table job's stages with stage idx replaced by wrap.
type wrappedRunner struct {
	*tableJob
	idx  int
	wrap stageWrap
}

func (w wrappedRunner) RunStage(ctx context.Context, i int) error {
	if i != w.idx {
		return w.tableJob.RunStage(ctx, i)
	}
	return w.wrap(func(ctx context.Context) error { return w.tableJob.RunStage(ctx, i) })(ctx)
}

// settleRun drives one batch the way Detect does — every table's
// pipelineJob() through the scheduler, then Report.settle per table — with
// stage idx of table victim replaced by wrap. It returns the report and the
// victim's job.
func settleRun(ctx context.Context, t *testing.T, det *Detector, conn *simdb.Conn, mode ExecMode, victim, idx int, wrap stageWrap) (*Report, *tableJob) {
	t.Helper()
	metas, err := conn.SchemaMetadata(ctx)
	if err != nil {
		t.Fatal(err)
	}
	tjobs := make([]tableJob, len(metas))
	jobs := make([]*pipeline.Job, len(metas))
	for i, tm := range metas {
		tjobs[i] = tableJob{d: det, cls: adtdClassifier{det.Model()}, conn: conn, table: tm.Name, meta: tm}
		jobs[i] = tjobs[i].pipelineJob()
	}
	jobs[victim].Runner = wrappedRunner{&tjobs[victim], idx, wrap}
	pipeline.Scheduler{Pipelined: mode.Pipelined}.Run(ctx, jobs)
	rep := &Report{}
	for i, j := range jobs {
		rep.settle(&tjobs[i], j.Err)
	}
	return rep, &tjobs[victim]
}

// checkDegradedWithRules: every uncertain column of the victim's table keeps
// its Phase-1 answer merged with the rule hits over the content s3 fetched
// (none when s3 fetched nothing), degraded for reason. It returns how many
// columns the rules changed.
func checkDegradedWithRules(t *testing.T, tj *tableJob, tr *TableResult, reason string) int {
	t.Helper()
	changed := 0
	for _, g := range tj.uncertain {
		c := tr.Columns[g]
		p1 := admitted(tj.cls.types(), c.Probs, tj.d.Opts.Beta)
		want := mergeTypes(p1, tj.d.ruleFallback(tj.cls.types(), tj.info.Columns[g].Values))
		if !c.Degraded || c.Phase != 1 || c.DegradeReason != reason || !slices.Equal(c.Admitted, want) {
			t.Fatalf("column %s: phase=%d degraded=%v reason=%q admitted=%v, want %q and %v",
				c.Column, c.Phase, c.Degraded, c.DegradeReason, c.Admitted, reason, want)
		}
		if !slices.Equal(want, p1) {
			changed++
		}
	}
	return changed
}

// TestStagePanicSettlesOneTable: whichever of its four stages panics, on
// either scheduler, one table pays for it and nobody else. A panic before
// Phase 1 finished (s1, s2) makes the table one error; a panic in Phase 2
// (s3, s4) answers it with its uncertain columns degraded through the rules,
// the panic as their reason. Every other table is byte-identical to the
// reference, the panic is counted once, and the detector answers the
// reference afterwards.
func TestStagePanicSettlesOneTable(t *testing.T) {
	for _, mode := range []ExecMode{SequentialMode, {Pipelined: true}} {
		det, ds := phase2Detector(t, 12)
		tables := allTables(ds)
		server := newServerWith(tables)
		ctx := context.Background()
		conn, err := server.Connect(ctx, "tenant")
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		ref, err := det.Detect(ctx, Request{Conn: conn, DBName: "tenant", Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		refByName := map[string]string{}
		for _, tr := range ref.Tables {
			b, _ := json.Marshal(tr)
			refByName[tr.Table] = string(b)
		}
		victim := len(tables) / 2
		name := tables[victim].Name
		for idx, stage := range []string{"metadata prep", "metadata forward", "content scan", "content forward"} {
			t.Run(fmt.Sprintf("pipelined=%v/s%d", mode.Pipelined, idx+1), func(t *testing.T) {
				panics := stagePanicsTotal.Value()
				rep, tj := settleRun(ctx, t, det, conn, mode, victim, idx, func(func(context.Context) error) func(context.Context) error {
					return func(context.Context) error { panic("injected") }
				})
				if got := stagePanicsTotal.Value() - panics; got != 1 {
					t.Fatalf("taste_pipeline_stage_panics_total rose by %d, want 1", got)
				}
				want := stage + " panic: injected"
				answered := len(ref.Tables)
				if idx < 2 {
					answered--
					if len(rep.Errors) != 1 || rep.Errors[0].Error() != "table "+name+": "+want || len(rep.Skipped) != 0 {
						t.Fatalf("errors %v, skipped %v: want the one error %q", rep.Errors, rep.Skipped, want)
					}
				} else if len(rep.Errors) != 0 {
					t.Fatalf("a Phase-2 panic must degrade, not fail, its table: %v", rep.Errors)
				}
				if len(rep.Tables) != answered {
					t.Fatalf("%d tables answered, want %d", len(rep.Tables), answered)
				}
				checkScannedFlags(t, rep)
				for _, tr := range rep.Tables {
					if tr.Table != name {
						if b, _ := json.Marshal(tr); string(b) != refByName[tr.Table] {
							t.Fatalf("table %s changed although its own stages ran fine", tr.Table)
						}
						continue
					}
					if len(tj.uncertain) == 0 {
						t.Fatal("victim has no uncertain column: test is vacuous")
					}
					checkDegradedWithRules(t, tj, tr, want)
					if scanned := tr.ScannedColumns > 0; scanned != (idx == 3) {
						t.Fatalf("victim scanned %d columns after an s%d panic", tr.ScannedColumns, idx+1)
					}
				}

				again, err := det.Detect(ctx, Request{Conn: conn, DBName: "tenant", Mode: mode})
				if err != nil {
					t.Fatal(err)
				}
				if canonTables(t, again) != canonTables(t, ref) {
					t.Fatal("detector did not return to the reference answer after the panic")
				}
			})
		}
	}
}

// TestDeadlineAfterScanMergesRules: when the deadline abandons a table
// between s3 and s4, the content s3 fetched still counts: its uncertain
// columns degrade with the rule hits over that content merged into the
// Phase-1 answer, as they do when s4 itself finds the deadline imminent
// (DESIGN.md §7, rule 3).
func TestDeadlineAfterScanMergesRules(t *testing.T) {
	det, ds := phase2Detector(t, 12)
	m := det.Model()
	ctx := context.Background()
	// A table the rules recognize in some column from what the detector's
	// own scan ships: of RowsToRead rows, each column's first
	// CellsPerColumn non-empty cells.
	var victim *corpus.Table
	for _, tb := range allTables(ds) {
		server := newServerWith([]*corpus.Table{tb})
		conn, err := server.Connect(ctx, "tenant")
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, c := range tb.Columns {
			names = append(names, c.Name)
		}
		content, err := conn.ScanColumns(ctx, tb.Name, names, det.scanOptions())
		conn.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, vals := range content {
			if len(det.ruleFallback(m.Types, vals)) > 0 {
				victim = tb
			}
		}
		if victim != nil {
			break
		}
	}
	if victim == nil {
		t.Fatal("no table the rules recognize")
	}

	for _, mode := range []ExecMode{SequentialMode, {Pipelined: true}} {
		t.Run(fmt.Sprintf("pipelined=%v", mode.Pipelined), func(t *testing.T) {
			conn, err := newServerWith([]*corpus.Table{victim}).Connect(ctx, "tenant")
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			dctx, cancel := context.WithTimeout(ctx, time.Second)
			defer cancel()
			deadlines := det.FaultStats().DeadlineDegraded
			rep, tj := settleRun(dctx, t, det, conn, mode, 0, 2, func(run func(context.Context) error) func(context.Context) error {
				return func(ctx context.Context) error {
					err := run(ctx)
					<-ctx.Done() // hold the table between s3 and s4 until the deadline
					return err
				}
			})
			if len(rep.Errors) != 0 || len(rep.Skipped) != 0 || len(rep.Tables) != 1 {
				t.Fatalf("errors %v, skipped %v, %d tables: want the table answered", rep.Errors, rep.Skipped, len(rep.Tables))
			}
			if rep.ScannedColumns == 0 {
				t.Fatal("s3 fetched no content before the deadline")
			}
			if checkDegradedWithRules(t, tj, rep.Tables[0], "deadline exceeded before phase 2") == 0 {
				t.Fatal("the rules changed no column: test is vacuous")
			}
			if got := det.FaultStats().DeadlineDegraded - deadlines; got != len(tj.uncertain) {
				t.Fatalf("%d deadline degradations booked, want %d", got, len(tj.uncertain))
			}
		})
	}
}

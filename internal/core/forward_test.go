package core

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/metafeat"
	"repro/internal/obs"
)

// stagePanicsTotal reads the scheduler's count of recovered stage panics.
var stagePanicsTotal = obs.Default.Counter("taste_pipeline_stage_panics_total")

// canonTables serializes per-table results for byte comparison across
// execution modes.
func canonTables(t *testing.T, rep *Report) string {
	t.Helper()
	out, err := json.Marshal(rep.Tables)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestEveryTableRunsItsOwnForward: over a database of many narrow tables
// with every column uncertain, Phase 2 costs exactly one content forward per
// table on the sequential and the pipelined path alike, and both return the
// same bytes — there is no layer between s4 and the model that could merge,
// split or reorder them.
func TestEveryTableRunsItsOwnForward(t *testing.T) {
	det, ds := phase2Detector(t, 40)
	tables := allTables(ds)
	server := newServerWith(tables)

	seq, err := det.DetectDatabase(context.Background(), server, "tenant", SequentialMode)
	if err != nil {
		t.Fatal(err)
	}
	if seq.ContentForwards != len(tables) {
		t.Fatalf("sequential forwards = %d, want one per table (%d)", seq.ContentForwards, len(tables))
	}

	det2, _ := phase2Detector(t, 40) // fresh caches
	piped, err := det2.DetectDatabase(context.Background(), server, "tenant", ExecMode{Pipelined: true, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if piped.ContentForwards != seq.ContentForwards {
		t.Fatalf("pipelined forwards = %d, want %d", piped.ContentForwards, seq.ContentForwards)
	}
	if canonTables(t, seq) != canonTables(t, piped) {
		t.Fatal("pipelined results differ from sequential results")
	}
}

// TestForwardPanicDegradesTable: a model forward that panics (here on a
// latent-cache entry that lost its input view) must cost exactly that
// table's Phase-2 answer — its pending columns come back degraded with the
// panic as the reason — while every other table of the batch answers as
// usual and the detector keeps serving afterwards. Unrecovered, the panic
// would take down the scheduler worker goroutine and the process with it.
func TestForwardPanicDegradesTable(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode ExecMode
	}{
		{"sequential", SequentialMode},
		{"pipelined", ExecMode{Pipelined: true, Workers: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			det, ds := phase2Detector(t, 12)
			tables := allTables(ds)
			server := newServerWith(tables)
			ref, err := det.DetectDatabase(context.Background(), server, "tenant", tc.mode)
			if err != nil {
				t.Fatal(err)
			}
			checkScannedFlags(t, ref)

			// Corrupt the victim's cached latents in place. The layers still
			// compare equal, so s2's re-Put of the same encoding keeps this
			// entry and s4 hands it to the content tower, which dereferences
			// the missing input.
			victim := tables[len(tables)/2].Name
			key := chunkKeys(t, det, server, "tenant", victim)[0]
			enc := det.cache.Get(key)
			if enc == nil {
				t.Fatalf("no cached latents for %s", victim)
			}
			in := enc.In
			enc.In = nil

			panics := stagePanicsTotal.Value()
			rep, err := det.DetectDatabase(context.Background(), server, "tenant", tc.mode)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Errors) != 0 {
				t.Fatalf("a panicking forward must degrade, not fail, its table: %v", rep.Errors)
			}
			if got := stagePanicsTotal.Value() - panics; got != 1 {
				t.Fatalf("taste_pipeline_stage_panics_total rose by %d, want 1", got)
			}
			checkScannedFlags(t, rep)
			if len(rep.Tables) != len(ref.Tables) {
				t.Fatalf("%d tables answered, want %d", len(rep.Tables), len(ref.Tables))
			}
			for i, tr := range rep.Tables {
				if tr.Table != victim {
					got, _ := json.Marshal(tr)
					want, _ := json.Marshal(ref.Tables[i])
					if string(got) != string(want) {
						t.Fatalf("table %s changed although its own forward ran fine", tr.Table)
					}
					continue
				}
				for _, c := range tr.Columns {
					if !c.Uncertain {
						continue
					}
					if !c.Degraded || c.Phase != 1 || !c.Scanned || !strings.Contains(c.DegradeReason, "content forward panic") {
						t.Fatalf("victim column %s: phase=%d scanned=%v degraded=%v reason=%q", c.Column, c.Phase, c.Scanned, c.Degraded, c.DegradeReason)
					}
				}
			}
			if rep.DegradedColumns == 0 {
				t.Fatal("report counts no degraded columns")
			}

			// The process keeps serving: with the entry repaired the same
			// detector answers the reference bytes again.
			enc.In = in
			again, err := det.DetectDatabase(context.Background(), server, "tenant", tc.mode)
			if err != nil {
				t.Fatal(err)
			}
			if canonTables(t, again) != canonTables(t, ref) {
				t.Fatal("detector did not return to the reference answer after the panic")
			}
		})
	}
}

// checkScannedFlags: in every table of rep, the columns flagged Scanned
// number exactly its ScannedColumns, and the report's total is their sum —
// degraded columns whose content s3 read included.
func checkScannedFlags(t *testing.T, rep *Report) {
	t.Helper()
	total := 0
	for _, tr := range rep.Tables {
		n := 0
		for _, c := range tr.Columns {
			if c.Scanned {
				n++
			}
		}
		if n != tr.ScannedColumns {
			t.Fatalf("table %s: %d columns flagged scanned, ScannedColumns %d", tr.Table, n, tr.ScannedColumns)
		}
		total += n
	}
	if total != rep.ScannedColumns {
		t.Fatalf("%d columns flagged scanned, report ScannedColumns %d", total, rep.ScannedColumns)
	}
}

// TestMetadataForwardPanicFailsTable: a model with one truncated weight
// slice (capacity too, so the kernels' bounds checks see it) panics in every
// forward it runs. Pipelined, Phase 1's forward panics
// on a scheduler worker goroutine; recovered, it fails that table with the
// panic as its error, counted once in taste_pipeline_stage_panics_total,
// and the process lives on. Phase 2's re-encode of latents the cache does
// not hold runs the same kernels and comes back the same way, as the content
// forward's panic.
func TestMetadataForwardPanicFailsTable(t *testing.T) {
	det, ds := phase2Detector(t, 4)
	table := allTables(ds)[0]
	server := newServerWith([]*corpus.Table{table})
	m := det.Model()

	// Phase 1's rows, taken from the healthy model before the weight is cut,
	// let the second half's s2 answer from the result cache.
	ctx := context.Background()
	conn, err := server.Connect(ctx, "tenant")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	tm, err := conn.TableMetadata(ctx, table.Name)
	if err != nil {
		t.Fatal(err)
	}
	chunks := metafeat.FromTableMeta(tm).Split(det.Opts.SplitThreshold)
	p1 := make([][][]float64, len(chunks))
	for i, chunk := range chunks {
		_, p1[i] = m.PredictMeta(chunk, det.Opts.UseHistogram)
	}

	w := m.Blocks[0].FF1.W
	w.Data = w.Data[: len(w.Data)-1 : len(w.Data)-1]

	panics := stagePanicsTotal.Value()
	rep, err := det.DetectDatabase(ctx, server, "tenant", ExecMode{Pipelined: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 0 || len(rep.Errors) != 1 || !strings.Contains(rep.Errors[0].Error(), "metadata forward panic") {
		t.Fatalf("%d tables answered, errors %v: want the one table failed by its metadata forward's panic", len(rep.Tables), rep.Errors)
	}
	if got := stagePanicsTotal.Value() - panics; got != 1 {
		t.Fatalf("taste_pipeline_stage_panics_total rose by %d, want 1", got)
	}

	// A detector with the latent tier off and Phase 1 memoized: s2 runs no
	// forward, and s4 must re-encode every chunk's metadata.
	opts := det.Opts
	opts.CacheBytes, opts.ResultCacheBytes = 0, 1<<20
	uncached, err := NewDetector(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, chunk := range chunks {
		uncached.results.Put(uncached.metaResultKey(m, chunk), p1[i])
	}
	panics = stagePanicsTotal.Value()
	rep, err = uncached.DetectDatabase(ctx, server, "tenant", SequentialMode)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Errors) != 0 || len(rep.Tables) != 1 || rep.DegradedColumns == 0 {
		t.Fatalf("errors %v, %d tables, %d degraded: want the table answered with Phase 2 degraded", rep.Errors, len(rep.Tables), rep.DegradedColumns)
	}
	for _, c := range rep.Tables[0].Columns {
		if c.Degraded && !strings.Contains(c.DegradeReason, "content forward panic") {
			t.Fatalf("content forward over an uncached chunk: column %s degraded for %q, want its re-encode's panic", c.Column, c.DegradeReason)
		}
	}
	if got := stagePanicsTotal.Value() - panics; got != 1 {
		t.Fatalf("taste_pipeline_stage_panics_total rose by %d on the re-encode, want 1", got)
	}
}

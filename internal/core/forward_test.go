package core

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/adtd"
	"repro/internal/corpus"
	"repro/internal/metafeat"
)

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

			// Corrupt the victim's cached latents in place. The layers still
			// compare equal, so s2's re-Put of the same encoding keeps this
			// entry and s4 hands it to the content tower, which dereferences
			// the missing input.
			victim := tables[len(tables)/2].Name
			key := det.cacheKey(det.Model(), "tenant", victim, 0)
			enc := det.cache.Get(key)
			if enc == nil {
				t.Fatalf("no cached latents for %s", victim)
			}
			in := enc.In
			enc.In = nil

			panics := forwardPanicsTotal.Value()
			rep, err := det.DetectDatabase(context.Background(), server, "tenant", tc.mode)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Errors) != 0 {
				t.Fatalf("a panicking forward must degrade, not fail, its table: %v", rep.Errors)
			}
			if got := forwardPanicsTotal.Value() - panics; got != 1 {
				t.Fatalf("taste_detector_forward_panics_total rose by %d, want 1", got)
			}
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
					if !c.Degraded || c.Phase != 1 || !strings.Contains(c.DegradeReason, "content forward panic") {
						t.Fatalf("victim column %s: phase=%d degraded=%v reason=%q", c.Column, c.Phase, c.Degraded, c.DegradeReason)
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

// TestMetadataForwardPanicFailsTable: a model with one truncated weight
// slice (capacity too, so the kernels' bounds checks see it) panics in every
// forward it runs. Pipelined, Phase 1's forward panics
// on a scheduler worker goroutine; recovered, it fails that table with the
// panic as its error, counted once in taste_detector_forward_panics_total,
// and the process lives on. Phase 2's re-encode of latents the cache does
// not hold runs the same kernels and comes back the same way, as a content
// forward error.
func TestMetadataForwardPanicFailsTable(t *testing.T) {
	det, ds := phase2Detector(t, 4)
	table := allTables(ds)[0]
	server := newServerWith([]*corpus.Table{table})
	m := det.Model()
	w := m.Blocks[0].FF1.W
	w.Data = w.Data[: len(w.Data)-1 : len(w.Data)-1]

	ctx := context.Background()
	panics := forwardPanicsTotal.Value()
	rep, err := det.DetectDatabase(ctx, server, "tenant", ExecMode{Pipelined: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 0 || len(rep.Errors) != 1 || !strings.Contains(rep.Errors[0].Error(), "metadata forward panic") {
		t.Fatalf("%d tables answered, errors %v: want the one table failed by its metadata forward's panic", len(rep.Tables), rep.Errors)
	}
	if got := forwardPanicsTotal.Value() - panics; got != 1 {
		t.Fatalf("taste_detector_forward_panics_total rose by %d, want 1", got)
	}

	conn, err := server.Connect(ctx, "tenant")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	tm, _, err := det.fetchTableMeta(ctx, conn, table.Name)
	if err != nil {
		t.Fatal(err)
	}
	chunk := metafeat.FromTableMeta(tm).Split(det.Opts.SplitThreshold)[0]
	j := &tableJob{d: det, model: m}
	panics = forwardPanicsTotal.Value()
	if _, err := j.contentForward([]adtd.ContentRequest{{Table: chunk, Cols: []int{0}}}); err == nil || !strings.Contains(err.Error(), "content forward panic") {
		t.Fatalf("content forward over an uncached chunk: err %v, want its re-encode's panic", err)
	}
	if got := forwardPanicsTotal.Value() - panics; got != 1 {
		t.Fatalf("taste_detector_forward_panics_total rose by %d on the re-encode, want 1", got)
	}
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/adtd"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/simdb"
)

type benchPipelineOpts struct {
	tables      int
	seed        int64
	repeats     int
	latency     float64
	workers     int
	batchChunks int
}

// benchPipelineRecord is one BENCH_10 entry: whole-database detect latency
// for an execution mode over the many-small-tables corpus, plus the
// counters that explain it — Phase-2 forwards issued, prefetcher traffic,
// and steal activity. The batched row carries the acceptance numbers:
// forwards drop and byte parity against the sequential baseline.
type benchPipelineRecord struct {
	Name            string  `json:"name"`
	GoMaxProcs      int     `json:"gomaxprocs"`
	Tables          int     `json:"tables"`
	Columns         int     `json:"columns"`
	Repeats         int     `json:"repeats"`
	P50Millis       float64 `json:"p50_ms"`
	P95Millis       float64 `json:"p95_ms"`
	ContentForwards int     `json:"content_forwards"`
	PrefetchHits    int     `json:"prefetch_hits,omitempty"`
	PrefetchWasted  int     `json:"prefetch_wasted,omitempty"`
	PrefetchSkipped int     `json:"prefetch_skipped,omitempty"`
	Steals          int64   `json:"steals,omitempty"`
	StolenStages    int64   `json:"stolen_stages,omitempty"`
	SpeedupP50      float64 `json:"speedup_p50_vs_sequential,omitempty"`
	ForwardsDrop    float64 `json:"forwards_drop_vs_sequential,omitempty"`
	Parity          string  `json:"parity,omitempty"`
}

// canonReport serializes the per-table results for byte comparison across
// execution modes. Everything in Tables is part of the determinism
// contract — admitted types, phases, probabilities, even retry counts
// (zero here: the bench tenant injects no faults).
func canonReport(rep *core.Report) (string, error) {
	out, err := json.Marshal(rep.Tables)
	return string(out), err
}

// runBenchPipeline measures whole-database detection over a corpus of many
// narrow tables (the per-table-overhead-dominated shape) in three modes:
// sequential, work-stealing with cross-table batching disabled, and
// work-stealing with batching. Every mode must produce byte-identical
// results; the batched mode must cut Phase-2 forwards ≥5×. Prints one
// BENCH_10 JSON line per mode.
func runBenchPipeline(opts benchPipelineOpts) error {
	if opts.tables <= 0 {
		opts.tables = 200
	}
	if opts.repeats <= 0 {
		opts.repeats = 3
	}
	if opts.latency < 0 {
		opts.latency = 0.05
	}
	// Batch occupancy is bounded by the worker count (the intra-request
	// batcher must flush once every worker is blocked submitting), so the
	// pool defaults to the chunk cap: 8 workers let a full 8-chunk forward
	// assemble even on one CPU.
	if opts.workers <= 0 {
		opts.workers = 8
	}
	if opts.batchChunks <= 0 {
		opts.batchChunks = 8
	}

	// Untrained tiny model with a near-full uncertainty band (α=0.01,
	// β=0.99): every column is uncertain after Phase 1 and goes through the
	// content path, so the bench exercises scan prefetch and cross-table
	// batching on all tables.
	ds := corpus.Generate(corpus.DefaultRegistry(), corpus.SmallTablesProfile(opts.tables), opts.seed)
	tok := adtd.BuildVocabulary(ds.Train, ds.Registry.Names(), 2000)
	types := adtd.NewTypeSpace(ds.Registry.Names())
	cfg := adtd.ReproScale()
	cfg.Layers, cfg.Hidden, cfg.Heads, cfg.Intermediate = 2, 32, 2, 48
	cfg.MetaClassifierHidden, cfg.ContentClassifierHidden = 32, 32
	model, err := adtd.New(cfg, tok, types, 7)
	if err != nil {
		return err
	}

	all := make([]*corpus.Table, 0, opts.tables)
	all = append(all, ds.Train...)
	all = append(all, ds.Val...)
	all = append(all, ds.Test...)
	columns := 0
	for _, t := range all {
		columns += len(t.Columns)
	}
	server := simdb.NewServer(simdb.PaperLatency(opts.latency))
	server.LoadTables("tenant", all)
	fmt.Fprintf(os.Stderr, "tastebench: benchpipeline: %d tables, %d columns, latency scale %g, %d repeats\n",
		len(all), columns, opts.latency, opts.repeats)

	newDetector := func() (*core.Detector, error) {
		dopts := core.DefaultOptions()
		dopts.Alpha, dopts.Beta = 0.01, 0.99
		return core.NewDetector(model, dopts)
	}

	modes := []struct {
		name string
		mode core.ExecMode
	}{
		{"pipeline/sequential", core.SequentialMode},
		{"pipeline/stealing", core.ExecMode{
			Pipelined: true, Workers: opts.workers, BatchChunks: -1,
		}},
		{"pipeline/stealing_batched", core.ExecMode{
			Pipelined: true, Workers: opts.workers, BatchChunks: opts.batchChunks,
		}},
	}

	gmp := runtime.GOMAXPROCS(0)
	var baseP50 float64
	var baseForwards int
	var baseCanon string
	for _, m := range modes {
		latencies := make([]float64, 0, opts.repeats)
		var rep *core.Report
		var canon string
		for r := 0; r < opts.repeats; r++ {
			// Fresh detector per repeat: every measurement is cold, so the
			// latent cache cannot blur the cross-mode comparison.
			det, err := newDetector()
			if err != nil {
				return err
			}
			start := time.Now()
			rep, err = det.DetectDatabase(context.Background(), server, "tenant", m.mode)
			latencies = append(latencies, float64(time.Since(start))/float64(time.Millisecond))
			if err != nil {
				return fmt.Errorf("%s: %w", m.name, err)
			}
			c, err := canonReport(rep)
			if err != nil {
				return err
			}
			if canon != "" && c != canon {
				return fmt.Errorf("%s: results changed between repeats", m.name)
			}
			canon = c
		}
		sort.Float64s(latencies)

		rec := benchPipelineRecord{
			Name: m.name, GoMaxProcs: gmp,
			Tables: len(all), Columns: columns, Repeats: opts.repeats,
			P50Millis: benchQuantile(latencies, 0.50), P95Millis: benchQuantile(latencies, 0.95),
			ContentForwards: rep.ContentForwards,
			PrefetchHits:    rep.PrefetchHits, PrefetchWasted: rep.PrefetchWasted, PrefetchSkipped: rep.PrefetchSkipped,
			Steals: rep.Steals, StolenStages: rep.StolenStages,
		}
		if m.name == "pipeline/sequential" {
			baseP50, baseForwards, baseCanon = rec.P50Millis, rec.ContentForwards, canon
		} else {
			if rec.P50Millis > 0 {
				rec.SpeedupP50 = baseP50 / rec.P50Millis
			}
			if rec.ContentForwards > 0 {
				rec.ForwardsDrop = float64(baseForwards) / float64(rec.ContentForwards)
			}
			rec.Parity = "ok"
			if canon != baseCanon {
				rec.Parity = "MISMATCH"
			}
		}
		out, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		fmt.Println(string(out))

		if rec.Parity == "MISMATCH" {
			return fmt.Errorf("%s: results differ from sequential mode", m.name)
		}
		if m.name == "pipeline/stealing_batched" {
			if rec.ForwardsDrop < 5 {
				return fmt.Errorf("batched mode forwards drop %.1fx < 5x target (%d vs %d)",
					rec.ForwardsDrop, rec.ContentForwards, baseForwards)
			}
			fmt.Fprintf(os.Stderr, "tastebench: benchpipeline: batched forwards %d vs sequential %d (%.1fx drop), p50 %.0fms vs %.0fms (%.2fx)\n",
				rec.ContentForwards, baseForwards, rec.ForwardsDrop, rec.P50Millis, baseP50, rec.SpeedupP50)
		}
	}
	return nil
}

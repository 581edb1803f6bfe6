package core

import (
	"bytes"
	"context"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/metafeat"
	"repro/internal/simdb"
)

// admittedByColumn flattens a report into column → admitted-types for
// cross-run comparison.
func admittedByColumn(rep *Report) map[string]string {
	out := make(map[string]string)
	for _, tr := range rep.Tables {
		for _, c := range tr.Columns {
			out[tr.Table+"."+c.Column] = strings.Join(c.Admitted, ",")
		}
	}
	return out
}

// chunkKeys returns the keys s2 gives table's chunks — each chunk's content
// key, which names its Phase-1 result and its latents — framed from the
// database's metadata as s1 prepares it.
func chunkKeys(t *testing.T, det *Detector, server *simdb.Server, db, table string) []string {
	t.Helper()
	ctx := context.Background()
	conn, err := server.Connect(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	tm, err := conn.TableMetadata(ctx, table)
	if err != nil {
		t.Fatal(err)
	}
	j := &tableJob{d: det, model: det.Model(), conn: conn, table: table, meta: tm}
	if err := j.s1PrepMetadata(ctx); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(j.chunks))
	for i, chunk := range j.chunks {
		keys[i] = det.metaResultKey(j.model, chunk)
	}
	return keys
}

// TestResultCacheMemoizesDetect: a repeat detect over unchanged metadata is
// served from the content-hash result cache — the second run records result
// hits and admits exactly the same types per column.
func TestResultCacheMemoizesDetect(t *testing.T) {
	m, ds := trainedModel(t)
	opts := DefaultOptions()
	opts.ResultCacheBytes = 16 << 20
	d, err := NewDetector(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(ds)

	rep1, err := d.DetectDatabase(context.Background(), srv, "tenant", SequentialMode)
	if err != nil {
		t.Fatal(err)
	}
	cold := d.Results().Stats()
	if cold.Hits != 0 {
		t.Fatalf("cold run reported %d result hits", cold.Hits)
	}
	if cold.Misses == 0 || cold.Entries == 0 {
		t.Fatalf("cold run did not populate the result cache: %+v", cold)
	}

	rep2, err := d.DetectDatabase(context.Background(), srv, "tenant", SequentialMode)
	if err != nil {
		t.Fatal(err)
	}
	warm := d.Results().Stats()
	if warm.Hits == 0 {
		t.Fatal("warm run never hit the result cache")
	}
	a1, a2 := admittedByColumn(rep1), admittedByColumn(rep2)
	if len(a1) != len(a2) {
		t.Fatalf("column count changed across runs: %d vs %d", len(a1), len(a2))
	}
	for k, v := range a1 {
		if a2[k] != v {
			t.Fatalf("memoization changed %s: %q vs %q", k, v, a2[k])
		}
	}
}

// TestGenerationInvalidatesKeys: a Save/Load round trip restores identical
// weights but bumps the model generation, so every latent and result key is
// orphaned in O(1) — no stale memoized answer can survive a checkpoint
// reload, even one that happens to restore the same parameters.
func TestGenerationInvalidatesKeys(t *testing.T) {
	m, ds := trainedModel(t)
	opts := DefaultOptions()
	opts.ResultCacheBytes = 16 << 20
	d, err := NewDetector(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(ds)
	if _, err := d.DetectDatabase(context.Background(), srv, "tenant", SequentialMode); err != nil {
		t.Fatal(err)
	}

	chunk := &metafeat.TableInfo{
		Name:     "t",
		RowCount: 3,
		Columns:  []*metafeat.ColumnInfo{{Name: "c", DataType: "text"}},
	}
	latentBefore := chunkKeys(t, d, srv, "tenant", ds.Test[0].Name)[0]
	if d.cache.Get(latentBefore) == nil {
		t.Fatal("no latents under the chunk's content key")
	}
	resultBefore := d.metaResultKey(m, chunk)
	genBefore := m.Generation()

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := m.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if m.Generation() <= genBefore {
		t.Fatalf("generation not bumped by Load: %d -> %d", genBefore, m.Generation())
	}
	if chunkKeys(t, d, srv, "tenant", ds.Test[0].Name)[0] == latentBefore {
		t.Fatal("latent cache key unchanged after Load")
	}
	if d.metaResultKey(m, chunk) == resultBefore {
		t.Fatal("result cache key unchanged after Load")
	}

	// The post-Load detect must recompute: its result-cache traffic is all
	// misses even though the restored weights are bit-identical.
	hitsBefore := d.Results().Stats().Hits
	if _, err := d.DetectDatabase(context.Background(), srv, "tenant", SequentialMode); err != nil {
		t.Fatal(err)
	}
	if got := d.Results().Stats().Hits; got != hitsBefore {
		t.Fatalf("post-Load detect hit stale result entries: %d -> %d hits", hitsBefore, got)
	}
}

// TestFeedbackBumpsGeneration: an online feedback update changes the
// weights, so it must advance the generation and thereby orphan cached
// latents and memoized results.
func TestFeedbackBumpsGeneration(t *testing.T) {
	m, ds := trainedModel(t)
	d, err := NewDetector(m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	info := metafeat.FromCorpusTable(ds.Test[0], false, 0)
	before := m.Generation()
	if err := d.Feedback(info, 0, ds.Test[0].Columns[0].Labels); err != nil {
		t.Fatal(err)
	}
	if m.Generation() <= before {
		t.Fatalf("generation not bumped by Feedback: %d -> %d", before, m.Generation())
	}
}

// TestLatentKeysKeepTenantsApart: tenant "a.b" with table "c" and tenant
// "a" with table "b.c" share one detector. A's repeat detect answers Phase 1
// from the result tier, which skips the latent Put, so its Phase 2 reads
// the latents under its chunks' content keys. B's metadata differs, so its
// detect stores under other keys and A's second answer still runs on A's
// latents: the tenants stay apart by content, not by how names are framed.
func TestLatentKeysKeepTenantsApart(t *testing.T) {
	base, ds := phase2Detector(t, 2)
	opts := base.Opts
	opts.ResultCacheBytes = 4 << 20
	det, err := NewDetector(base.Model(), opts)
	if err != nil {
		t.Fatal(err)
	}
	tables := allTables(ds)
	a, b := *tables[0], *tables[1]
	a.Name, b.Name = "c", "b.c"
	server := simdb.NewServer(simdb.NoLatency)
	server.LoadTables("a.b", []*corpus.Table{&a})
	server.LoadTables("a", []*corpus.Table{&b})
	detect := func(db string) string {
		t.Helper()
		rep, err := det.DetectDatabase(context.Background(), server, db, SequentialMode)
		if err != nil {
			t.Fatal(err)
		}
		return canonTables(t, rep)
	}

	first := detect("a.b")
	detect("a")
	// Drop A's Phase-2 result entries, keyed as s4 keys them: a probe
	// detector on the same model and options replays A's first three stages
	// without touching det's caches.
	probe, err := NewDetector(det.Model(), opts)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := server.Connect(context.Background(), "a.b")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	tm, err := conn.TableMetadata(context.Background(), "c")
	if err != nil {
		t.Fatal(err)
	}
	j := &tableJob{d: probe, model: probe.Model(), conn: conn, table: "c", meta: tm}
	for _, st := range j.stages()[:3] {
		if err := st.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if len(j.uncertain) == 0 {
		t.Fatal("no uncertain column: Phase 2 never runs")
	}
	for ci, chunk := range j.chunks {
		cols := make([]int, len(chunk.Columns))
		for local := range cols {
			cols[local] = local
		}
		key := probe.contentResultKey(j.model, chunk, cols, opts.CellsPerColumn)
		if _, ok := det.Results().Get(key); !ok {
			t.Fatalf("chunk %d: no Phase-2 result entry to drop", ci)
		}
		det.Results().Delete(key)
	}

	if detect("a.b") != first {
		t.Fatal("tenant a.b's repeat detect ran Phase 2 on tenant a's latents")
	}
}

// TestLatentKeyFollowsMetadataChange: one table name holds three versions on
// one detector with both tiers on — A as generated, B with columns 0 and 1
// renamed into each other (a tenant re-registered with a changed schema),
// then C with A's metadata and every column's values reversed. C's Phase 1
// hits A's memoized result, which skips the latent Put, and its new content
// misses the Phase-2 tier, so s4 reads latents: they must be A's, which C
// shares by content, and never B's. C must answer what a detector with both
// tiers off answers.
func TestLatentKeyFollowsMetadataChange(t *testing.T) {
	base, ds := phase2Detector(t, 20)
	var a *corpus.Table
	for _, tb := range allTables(ds) {
		if len(tb.Columns) >= 3 {
			a = tb
			break
		}
	}
	if a == nil {
		t.Fatal("no table with three columns")
	}
	version := func(edit func(cols []*corpus.Column)) *simdb.Server {
		tb := *a
		tb.Columns = make([]*corpus.Column, len(a.Columns))
		for i, c := range a.Columns {
			cc := *c
			cc.Values = slices.Clone(c.Values)
			tb.Columns[i] = &cc
		}
		edit(tb.Columns)
		return newServerWith([]*corpus.Table{&tb})
	}
	srvA := newServerWith([]*corpus.Table{a})
	srvB := version(func(cols []*corpus.Column) { cols[0].Name, cols[1].Name = cols[1].Name, cols[0].Name })
	srvC := version(func(cols []*corpus.Column) {
		for _, c := range cols {
			slices.Reverse(c.Values)
		}
	})

	type answer struct {
		Probs    []float64
		Admitted []string
		Degraded bool
	}
	answers := func(rep *Report) []answer {
		t.Helper()
		if len(rep.Errors) != 0 || len(rep.Tables) != 1 {
			t.Fatalf("errors %v, %d tables", rep.Errors, len(rep.Tables))
		}
		var out []answer
		for _, c := range rep.Tables[0].Columns {
			if c.Phase != 2 {
				t.Fatalf("column %s stopped at phase %d", c.Column, c.Phase)
			}
			out = append(out, answer{c.Probs, c.Admitted, c.Degraded})
		}
		return out
	}
	for _, mode := range []ExecMode{SequentialMode, {Pipelined: true}} {
		opts := base.Opts
		opts.CacheBytes, opts.ResultCacheBytes = 0, 0
		cold, err := NewDetector(base.Model(), opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.CacheBytes, opts.ResultCacheBytes = base.Opts.CacheBytes, 4<<20
		det, err := NewDetector(base.Model(), opts)
		if err != nil {
			t.Fatal(err)
		}
		detect := func(d *Detector, srv *simdb.Server) *Report {
			t.Helper()
			rep, err := d.DetectDatabase(context.Background(), srv, "tenant", mode)
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}
		want := answers(detect(cold, srvC))
		detect(det, srvA)
		detect(det, srvB)
		rep := detect(det, srvC)
		if rep.CacheHits == 0 {
			t.Fatalf("pipelined=%v: C's Phase 2 never read the latent tier", mode.Pipelined)
		}
		for i, got := range answers(rep) {
			if !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("pipelined=%v: column %d of C after A and B answers %v (degraded %v), a cold detector %v (degraded %v); probabilities equal: %v",
					mode.Pipelined, i, got.Admitted, got.Degraded, want[i].Admitted, want[i].Degraded, slices.Equal(got.Probs, want[i].Probs))
			}
		}
	}
}

package core

import (
	"bytes"
	"context"
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
	latentBefore := d.cacheKey(m, "tenant", "t", 0)
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
	if d.cacheKey(m, "tenant", "t", 0) == latentBefore {
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

// TestLatentKeyFramesNames: database and table names are not validated
// anywhere, so the latent key must tell every (database, table) split of the
// same characters apart.
func TestLatentKeyFramesNames(t *testing.T) {
	d, _ := phase2Detector(t, 1)
	m := d.Model()
	pairs := [][2]string{
		{"a.b", "c"}, {"a", "b.c"}, {"a.b.c", ""}, {"", "a.b.c"},
		{"a/1:b", "c"}, {"a", "1:b/c"}, {"a#0", "b"}, {"a", "b#0"},
	}
	seen := make(map[string][2]string)
	for _, p := range pairs {
		key := d.cacheKey(m, p[0], p[1], 0)
		if prev, dup := seen[key]; dup {
			t.Fatalf("tenant %q table %q and tenant %q table %q share latent key %q", prev[0], prev[1], p[0], p[1], key)
		}
		seen[key] = p
	}
}

// TestLatentKeysKeepTenantsApart: tenant "a.b" with table "c" and tenant
// "a" with table "b.c" share one detector. A's repeat detect answers Phase 1
// from the result tier, which skips the latent Put, so its Phase 2 reads
// whatever latents sit under A's key. After B's detect those must still be
// A's, or A's second answer silently runs on B's metadata.
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
	j := &tableJob{d: probe, model: probe.Model(), conn: conn, dbName: "a.b", table: "c", meta: tm}
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

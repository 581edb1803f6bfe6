package core

import (
	"bytes"
	"context"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/cache"
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
	j := &tableJob{d: det, cls: adtdClassifier{det.Model()}, conn: conn, table: table, meta: tm}
	if err := j.s1PrepMetadata(ctx); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(j.chunks))
	for i, chunk := range j.chunks {
		keys[i] = det.metaResultKey(det.Model(), chunk)
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

// TestSwapModelKeysByGeneration: a hot-swap to a model holding the very
// same bits (its own generation) orphans every memoized result, so the
// swapped-in model's first detect hits nothing; swapping back finds the
// first model's entries still valid, with no flush on either swap.
func TestSwapModelKeysByGeneration(t *testing.T) {
	m, ds := trainedModel(t)
	opts := DefaultOptions()
	opts.ResultCacheBytes = 16 << 20
	d, err := NewDetector(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(ds)
	detect := func() (hits int64) {
		t.Helper()
		before := d.Results().Stats().Hits
		if _, err := d.DetectDatabase(context.Background(), srv, "tenant", SequentialMode); err != nil {
			t.Fatal(err)
		}
		return d.Results().Stats().Hits - before
	}
	detect()
	if detect() == 0 {
		t.Fatal("a repeat detect on the same model hit no memoized result")
	}
	twin := twinModel(t, m)
	if twin.Generation() == m.Generation() {
		t.Fatal("a loaded sibling shares its source's generation")
	}
	d.SwapModel(twin)
	if hits := detect(); hits != 0 {
		t.Fatalf("the swapped-in model hit %d results memoized under the old generation", hits)
	}
	d.SwapModel(m)
	if detect() == 0 {
		t.Fatal("swapping back lost the first model's memoized results")
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
	// Keep only A's Phase-1 result entries, so A's repeat detect answers
	// Phase 1 from the tier and runs Phase 2: a probe detector on the same
	// model and options replays A's first three stages without touching
	// det's caches, and gives the keys s2 and s4 use.
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
	j := &tableJob{d: probe, cls: adtdClassifier{probe.Model()}, conn: conn, table: "c", meta: tm}
	for i := range 3 {
		if err := j.RunStage(context.Background(), i); err != nil {
			t.Fatal(err)
		}
	}
	if len(j.uncertain) == 0 {
		t.Fatal("no uncertain column: Phase 2 never runs")
	}
	kept := cache.NewResult(opts.ResultCacheBytes, 0)
	for ci, chunk := range j.chunks {
		cols := make([]int, len(chunk.Columns))
		for local := range cols {
			cols[local] = local
		}
		key := probe.contentResultKey(probe.Model(), j.keys[ci], chunk, cols, opts.CellsPerColumn)
		if _, ok := det.Results().Get(key); !ok {
			t.Fatalf("chunk %d: no Phase-2 result entry to drop", ci)
		}
		rows, ok := det.Results().Get(j.keys[ci])
		if !ok {
			t.Fatalf("chunk %d: no Phase-1 result entry to keep", ci)
		}
		kept.Put(j.keys[ci], rows)
	}
	det.results = kept

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

// TestResultTierDifferential: a detector warmed on one server detects a
// table on a second server whose copy differs in one cell. (i) The cell
// lies inside the scan but past a column's n-th non-empty cell, so the
// content tower never reads it: the result tier answers Phase 2 and no
// content forward runs. (ii) The cell is one the content tower reads:
// Phase 2 misses and runs its forward. Either way the answer is
// byte-identical to a cold detector's on the second server.
func TestResultTierDifferential(t *testing.T) {
	base, ds := phase2Detector(t, 20)
	opts := base.Opts
	opts.ResultCacheBytes = 4 << 20
	n := opts.CellsPerColumn

	// A column with a cell after its n-th non-empty one within the first
	// RowsToRead rows, which the FirstRows scan reads.
	var src *corpus.Table
	col, read, unread := -1, -1, -1
	for _, tb := range allTables(ds) {
		for ci, c := range tb.Columns {
			seen := 0
			for r := 0; r+1 < min(len(c.Values), opts.RowsToRead); r++ {
				if c.Values[r] == "" {
					continue
				}
				if seen++; seen == 1 {
					read = r
				}
				if seen == n {
					src, col, unread = tb, ci, r+1
					break
				}
			}
			if src != nil {
				break
			}
		}
		if src != nil {
			break
		}
	}
	if src == nil {
		t.Fatalf("no column with a cell past its %d-th non-empty one in the first %d rows", n, opts.RowsToRead)
	}
	edited := func(row int) *simdb.Server {
		tb := *src
		tb.Columns = slices.Clone(src.Columns)
		c := *src.Columns[col]
		c.Values = slices.Clone(c.Values)
		c.Values[row] += "~"
		tb.Columns[col] = &c
		return newServerWith([]*corpus.Table{&tb})
	}
	first := newServerWith([]*corpus.Table{src})

	for _, tc := range []struct {
		name string
		row  int
		hit  bool
	}{{"unread cell", unread, true}, {"read cell", read, false}} {
		second := edited(tc.row)
		for _, mode := range []ExecMode{SequentialMode, {Pipelined: true}} {
			detect := func(d *Detector, srv *simdb.Server) *Report {
				t.Helper()
				rep, err := d.DetectDatabase(context.Background(), srv, "tenant", mode)
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.Errors) != 0 || len(rep.Tables) != 1 {
					t.Fatalf("errors %v, %d tables", rep.Errors, len(rep.Tables))
				}
				return rep
			}
			warm, err := NewDetector(base.Model(), opts)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := NewDetector(base.Model(), opts)
			if err != nil {
				t.Fatal(err)
			}
			detect(warm, first)
			got := detect(warm, second)
			want := detect(cold, second)
			if want.ContentForwards == 0 {
				t.Fatalf("%s: the cold detect never reached Phase 2", tc.name)
			}
			if tc.hit && got.ContentForwards != 0 {
				t.Fatalf("%s, pipelined=%v: %d content forwards, want the result tier to answer", tc.name, mode.Pipelined, got.ContentForwards)
			}
			if !tc.hit && got.ContentForwards == 0 {
				t.Fatalf("%s, pipelined=%v: the result tier answered content the model reads differently", tc.name, mode.Pipelined)
			}
			if g, w := canonTables(t, got), canonTables(t, want); g != w {
				t.Fatalf("%s, pipelined=%v: warm answer differs from a cold detector's\n warm %s\n cold %s", tc.name, mode.Pipelined, g, w)
			}
		}
	}
}

package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/adtd"
	"repro/internal/corpus"
	"repro/internal/obs"
	"repro/internal/simdb"
)

// phase2Detector builds an untrained tiny detector with a near-full
// uncertainty band (α=0.01, β=0.99): every column is uncertain after
// Phase 1, so the full prefetch + scan + content-inference path runs for
// every table.
func phase2Detector(t *testing.T, tables int) (*Detector, *corpus.Dataset) {
	t.Helper()
	ds := corpus.Generate(corpus.DefaultRegistry(), corpus.SmallTablesProfile(tables), 3)
	tok := adtd.BuildVocabulary(ds.Train, ds.Registry.Names(), 2000)
	types := adtd.NewTypeSpace(ds.Registry.Names())
	cfg := adtd.ReproScale()
	cfg.Layers, cfg.Hidden, cfg.Heads, cfg.Intermediate = 2, 32, 2, 48
	cfg.MetaClassifierHidden, cfg.ContentClassifierHidden = 32, 32
	m, err := adtd.New(cfg, tok, types, 7)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Alpha, opts.Beta = 0.01, 0.99
	det, err := NewDetector(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return det, ds
}

// allTables flattens every split into one tenant database.
func allTables(ds *corpus.Dataset) []*corpus.Table {
	all := make([]*corpus.Table, 0, len(ds.Train)+len(ds.Val)+len(ds.Test))
	all = append(all, ds.Train...)
	all = append(all, ds.Val...)
	return append(all, ds.Test...)
}

// newServerWith loads the tables into a zero-latency tenant.
func newServerWith(tables []*corpus.Table) *simdb.Server {
	s := simdb.NewServer(simdb.NoLatency)
	s.LoadTables("tenant", tables)
	return s
}

// TestPrefetcherParity: prefetched ANALYZE replies and scans must be
// identical to the synchronous reads they replace, with every future
// consumed (no waste, no held bytes) when the batch runs to completion in
// table order.
func TestPrefetcherParity(t *testing.T) {
	det, ds := phase2Detector(t, 20)
	det.Opts.UseHistogram = true
	tables := allTables(ds)
	server := simdb.NewServer(simdb.NoLatency)
	server.LoadTables("tenant", tables)
	ctx := context.Background()
	conn, err := server.Connect(ctx, "tenant")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	schema, err := conn.SchemaMetadata(ctx)
	if err != nil {
		t.Fatal(err)
	}

	pf := newPrefetcher(ctx, det, conn, schema, 4, 0, 0)
	for _, tb := range tables {
		f := pf.await(analyzeRead, tb.Name)
		if f == nil || f.err != nil {
			t.Fatalf("await(analyze, %s): %+v", tb.Name, f)
		}
		direct, _, err := det.fetchTableMeta(ctx, conn, tb.Name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(f.tm, direct) {
			t.Fatalf("table %s: prefetched ANALYZE differs from direct fetch", tb.Name)
		}

		cols := tableCols(tb)
		pf.tryStartScan(tb.Name, cols)
		f = pf.await(scanRead, tb.Name)
		if f == nil || f.err != nil {
			t.Fatalf("await(scan, %s): %+v", tb.Name, f)
		}
		directScan, err := conn.ScanColumns(ctx, tb.Name, cols, simdb.ScanOptions{
			Strategy: det.Opts.Strategy, Rows: det.Opts.RowsToRead, Seed: det.Opts.ScanSeed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(f.content, directScan) {
			t.Fatalf("table %s: prefetched scan differs from direct scan", tb.Name)
		}
	}
	pf.close()
	if pf.waste != 0 || pf.heldBytes != 0 || pf.skipped != 0 {
		t.Fatalf("full consumption must leave nothing behind: waste=%d heldBytes=%d skipped=%d",
			pf.waste, pf.heldBytes, pf.skipped)
	}
	if want := 2 * len(tables); pf.hits != want {
		t.Fatalf("hits = %d, want %d", pf.hits, want)
	}
}

// tableNames lists the tables' names in order.
func tableNames(tables []*corpus.Table) []string {
	names := make([]string, len(tables))
	for i, tb := range tables {
		names[i] = tb.Name
	}
	return names
}

// waitGoroutines fails the test when the goroutine count does not return to
// (about) its baseline.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Fatalf("goroutines leaked: before=%d after=%d", before, after)
	}
}

// tableCols names every column of tb.
func tableCols(tb *corpus.Table) []string {
	out := make([]string, len(tb.Columns))
	for i, c := range tb.Columns {
		out[i] = c.Name
	}
	return out
}

// TestPrefetcherBrakes: a scan over the in-flight depth waits its turn — its
// table parks, no read is declined — while the byte budget blocks new scans
// as long as completed content sits unconsumed, and a byte-braked scan is
// skipped, never queued.
func TestPrefetcherBrakes(t *testing.T) {
	det, ds := phase2Detector(t, 20)
	tables := allTables(ds)
	ctx := context.Background()

	// Depth: with no sample and no prior the bound is one read in flight.
	// Behind a round trip the first scan holds that slot while the next two
	// queue.
	slow := simdb.NewServer(simdb.PaperLatency(4))
	slow.LoadTables("tenant", tables)
	conn, err := slow.Connect(ctx, "tenant")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	pf := newPrefetcher(ctx, det, conn, nil, 4, 0, 0)
	for _, tb := range tables[:3] {
		pf.tryStartScan(tb.Name, tableCols(tb))
	}
	pf.mu.Lock()
	inflight, queued, skipped := pf.inflight, len(pf.queue), pf.skipped
	pf.mu.Unlock()
	if inflight != 1 || queued != 2 || skipped != 0 {
		t.Fatalf("depth brake: inflight=%d queued=%d skipped=%d, want 1/2/0", inflight, queued, skipped)
	}
	for _, tb := range tables[:3] {
		if pf.ready(scanRead, tb.Name) == nil {
			t.Fatalf("table %s: a queued scan must still gate its s3", tb.Name)
		}
		if f := pf.await(scanRead, tb.Name); f == nil || f.err != nil || len(f.content) == 0 {
			t.Fatalf("queued scan of %s never ran: %+v", tb.Name, f)
		}
	}
	pf.close()
	if pf.waste != 0 || pf.hits != 3 {
		t.Fatalf("waste=%d hits=%d after consuming every scan, want 0/3", pf.waste, pf.hits)
	}

	// Byte brake: one completed-but-unconsumed scan exceeds the budget.
	fast := simdb.NewServer(simdb.NoLatency)
	fast.LoadTables("tenant", tables)
	conn2, err := fast.Connect(ctx, "tenant")
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	pf = newPrefetcher(ctx, det, conn2, nil, 4, 1, 0)
	pf.tryStartScan(tables[0].Name, tableCols(tables[0]))
	<-pf.ready(scanRead, tables[0].Name)
	pf.tryStartScan(tables[1].Name, tableCols(tables[1]))
	if pf.skipped != 1 || len(pf.queue) != 0 {
		t.Fatalf("byte brake: skipped=%d queued=%d, want 1/0", pf.skipped, len(pf.queue))
	}
	if pf.ready(scanRead, tables[1].Name) != nil || pf.await(scanRead, tables[1].Name) != nil {
		t.Fatal("a skipped scan must leave s3 ungated (synchronous fallback)")
	}
	if pf.await(scanRead, tables[0].Name) == nil {
		t.Fatal("held scan must still be consumable")
	}
	pf.close()
	if pf.heldBytes != 0 {
		t.Fatalf("heldBytes = %d after consume+close, want 0", pf.heldBytes)
	}
}

// TestPrefetchDepthRule drives the estimator with synthetic samples — no
// clock, no storage: depth = 1 + ⌊latency × workers ÷ busy-per-table⌋, the
// schema read's latency standing in until a scan returns.
func TestPrefetchDepthRule(t *testing.T) {
	ms := func(f float64) time.Duration { return time.Duration(f * float64(time.Millisecond)) }
	feed := func(e *depthEstimator, scan time.Duration, stages [4]time.Duration) {
		if scan > 0 {
			e.observeLatency(scan)
		}
		for i, d := range stages {
			e.observeBusy(i, d)
		}
	}
	stages := [4]time.Duration{ms(0.1), ms(2.9), ms(0.1), ms(4.9)} // 8 ms a table

	if e := (&depthEstimator{workers: 4}); e.depth() != 1 {
		t.Fatal("no samples, no prior: depth must be 1")
	}
	e := &depthEstimator{workers: 4, prior: ms(15).Seconds()}
	e.observeBusy(0, ms(0.005))
	if e.depth() != 1 {
		t.Fatal("no forward has reported yet: s1's microseconds are no estimate, depth must stay 1")
	}

	// No scan has returned yet: a scan is at least the schema read's round
	// trip. 15 ms × 4 workers ÷ 8 ms = 7.5 tables consumed per round trip.
	feed(e, 0, stages)
	if got := e.depth(); got != 8 {
		t.Fatalf("depth before the first scan sample = %d, want 8", got)
	}
	e.observeLatency(ms(22))
	if got := e.depth(); got != 12 {
		t.Fatalf("scan depth = %d, want 12", got)
	}

	// A starved pool: the same reads and the same stage costs, only far
	// fewer of them per second. Nothing the estimator sees changes, so the
	// depth holds — it is sized from what the pool could consume.
	for i := 0; i < 100; i++ {
		feed(e, ms(22), stages)
	}
	if got := e.depth(); got != 12 {
		t.Fatalf("depth moved to %d on unchanged samples", got)
	}
	// One 8× straggler counts for an eighth of its excess (and errs on the
	// deep side); slower stages shrink the depth.
	e.observeLatency(ms(176))
	if got := e.depth(); got != 21 {
		t.Fatalf("one 176 ms straggler moved the depth to %d, want 21", got)
	}
	for i := 0; i < 100; i++ {
		feed(e, ms(22), [4]time.Duration{ms(0.2), ms(5.8), ms(0.2), ms(9.8)})
	}
	if got := e.depth(); got != 6 {
		t.Fatalf("depth with 16 ms tables = %d, want 6", got)
	}

	// No storage latency: microsecond reads against millisecond tables
	// truncate to nothing ahead.
	z := &depthEstimator{workers: 8, prior: (20 * time.Microsecond).Seconds()}
	feed(z, 0, stages)
	if got := z.depth(); got != 1 {
		t.Fatalf("zero-latency depth from the prior = %d, want 1", got)
	}
	for i := 0; i < 20; i++ {
		feed(z, 60*time.Microsecond, stages)
	}
	if got := z.depth(); got != 1 {
		t.Fatalf("zero-latency depth = %d, want 1", got)
	}
}

// TestPrefetcherCancelDrains: cancelling the batch context mid-flight must
// let close() return promptly (all reads drained), account every issued,
// unconsumed read — ANALYZE and scan — as waste, and leak no goroutines.
func TestPrefetcherCancelDrains(t *testing.T) {
	det, ds := phase2Detector(t, 30)
	det.Opts.UseHistogram = true
	tables := allTables(ds)
	server := simdb.NewServer(simdb.PaperLatency(4))
	server.LoadTables("tenant", tables)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	conn, err := server.Connect(context.Background(), "tenant")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	schema, err := conn.SchemaMetadata(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	// A 20 ms schema read against a pool that costs 100 µs a table: the
	// depth opens wide before any scan has returned.
	pf := newPrefetcher(ctx, det, conn, schema, 4, 0, 20*time.Millisecond)
	pf.observeBusy(1, 100*time.Microsecond)
	const scans = 10
	for _, tb := range tables[:scans] {
		pf.tryStartScan(tb.Name, tableCols(tb))
	}
	pf.mu.Lock()
	inflight, queued, analyses := pf.inflight, len(pf.queue), len(pf.futures[analyzeRead])
	pf.mu.Unlock()
	if inflight != scans || queued != 0 {
		t.Fatalf("inflight=%d queued=%d: the prior did not open the depth to %d", inflight, queued, scans)
	}
	if analyses != len(tables) {
		t.Fatalf("%d ANALYZE futures for %d cold tables", analyses, len(tables))
	}
	cancel()

	closed := make(chan struct{})
	go func() {
		pf.close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("close() did not drain in-flight reads after cancellation")
	}
	if want := analyses + scans; pf.waste != want {
		t.Fatalf("waste = %d, want %d (every issued, unconsumed read)", pf.waste, want)
	}
	if pf.inflight != 0 {
		t.Fatalf("%d scans in flight after close", pf.inflight)
	}
	waitGoroutines(t, before)
}

// TestPipelinedPrefetchHitsEveryRead is the regression test for the
// LIFO-versus-lookahead bug: workers used to start at the far end of the
// table list while the lookahead read the near end, so most reads were
// synchronous sleeps on a worker that no counter saw. Now every scan is a
// consumed future and nothing is skipped, and the whole batch's metadata is
// one schema query.
func TestPipelinedPrefetchHitsEveryRead(t *testing.T) {
	det, ds := phase2Detector(t, 32)
	tables := allTables(ds)
	// 100 ms a round trip against a pool that needs a few ms a table: even
	// under the race detector storage is the bottleneck and the depth opens.
	server := simdb.NewServer(simdb.PaperLatency(20))
	server.LoadTables("tenant", tables)
	s1Parks := obs.Default.LatencyHistogram("taste_pipeline_park_seconds", "stage", "s1")
	parked := s1Parks.Count()
	rep, err := det.DetectDatabase(context.Background(), server, "tenant", ExecMode{Pipelined: true, Workers: 4})
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
		t.Fatal("fixture scanned nothing: the test cannot see scan prefetches")
	}
	if rep.PrefetchHits != scanned {
		t.Fatalf("PrefetchHits = %d, want %d (every scan)", rep.PrefetchHits, scanned)
	}
	if rep.PrefetchSkipped != 0 || rep.PrefetchWasted != 0 {
		t.Fatalf("skipped=%d wasted=%d, want 0/0", rep.PrefetchSkipped, rep.PrefetchWasted)
	}
	// Ledger: one query per scan, the rest is metadata.
	if metaQueries := server.Accounting().Snapshot().Queries - scanned; metaQueries != 1 {
		t.Fatalf("%d metadata queries for %d tables, want the one schema read", metaQueries, len(tables))
	}
	// Without histograms s1 has nothing to wait for.
	if got := s1Parks.Count() - parked; got != 0 {
		t.Fatalf("%d tables parked at s1", got)
	}

	// Same tenant, no latency, sequential: identical answers.
	ref, _ := phase2Detector(t, 32)
	seq, err := ref.DetectDatabase(context.Background(), newServerWith(tables), "tenant", SequentialMode)
	if err != nil {
		t.Fatal(err)
	}
	if canonTables(t, seq) != canonTables(t, rep) {
		t.Fatal("gated pipelined results differ from the sequential reference")
	}
}

// TestPipelinedPrefetchCancelWhileParked: with every table parked on its
// scan future — no worker running anything — a cancel must return
// DetectDatabase promptly with the context error on every table, consume
// nothing, and leave neither a parked job nor a goroutine behind.
func TestPipelinedPrefetchCancelWhileParked(t *testing.T) {
	det, ds := phase2Detector(t, 24)
	tables := allTables(ds)
	// Half a second a query: once the schema read has returned, every table
	// runs Phase 1 and parks on its scan, and no scan comes back before the
	// cancel.
	server := simdb.NewServer(simdb.LatencyProfile{QueryRoundTrip: 500 * time.Millisecond, SamplingPenalty: 1})
	server.LoadTables("tenant", tables)
	parked := obs.Default.Gauge("taste_pipeline_parked_jobs")
	base := parked.Value()

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type outcome struct {
		rep *Report
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		rep, err := det.DetectDatabase(ctx, server, "tenant", ExecMode{Pipelined: true, Workers: 4})
		done <- outcome{rep, err}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for parked.Value()-base < int64(len(tables)) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d tables parked", parked.Value()-base, len(tables))
		}
		time.Sleep(time.Millisecond)
	}
	cancelled := time.Now()
	cancel()
	var out outcome
	select {
	case out = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("DetectDatabase did not return after a cancel with every table parked")
	}
	if took := time.Since(cancelled); took > time.Second {
		t.Fatalf("return took %v after the cancel: something slept out its read", took)
	}
	if out.err != nil {
		t.Fatalf("batch error %v, want per-table context errors", out.err)
	}
	if len(out.rep.Tables) != 0 || len(out.rep.Errors) != len(tables) {
		t.Fatalf("tables=%d errors=%d, want 0/%d", len(out.rep.Tables), len(out.rep.Errors), len(tables))
	}
	for _, e := range out.rep.Errors {
		if !errors.Is(e, context.Canceled) {
			t.Fatalf("table error %v, want context.Canceled", e)
		}
	}
	if out.rep.PrefetchHits != 0 || out.rep.PrefetchWasted == 0 {
		t.Fatalf("hits=%d wasted=%d: the one read in flight must be the only thing accounted", out.rep.PrefetchHits, out.rep.PrefetchWasted)
	}
	if got := parked.Value() - base; got != 0 {
		t.Fatalf("%d jobs still parked after return", got)
	}
	waitGoroutines(t, before)
}

// TestPipelinedPrefetchCancelNoLeak: cancelling a full pipelined
// DetectDatabase run — work-stealing scheduler and prefetcher both live —
// must abort with context.Canceled and wind everything down.
func TestPipelinedPrefetchCancelNoLeak(t *testing.T) {
	det, ds := phase2Detector(t, 30)
	// Scale 10 → 100 ms connect, 50 ms per query, 40 ms to transfer a scan:
	// connect, the schema read and the first scans alone take over 240 ms,
	// so a cancel at 200 ms is guaranteed to land mid-run.
	server := simdb.NewServer(simdb.PaperLatency(10))
	server.LoadTables("tenant", allTables(ds))
	mode := ExecMode{Pipelined: true, Workers: 8}

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

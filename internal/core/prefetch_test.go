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

// TestPrefetcherParity: prefetched metadata and scans must be identical to
// the synchronous reads they replace, with every future consumed (no waste,
// no held bytes) when the batch runs to completion in table order.
func TestPrefetcherParity(t *testing.T) {
	det, ds := phase2Detector(t, 20)
	tables := allTables(ds)
	server := simdb.NewServer(simdb.NoLatency)
	server.LoadTables("tenant", tables)
	ctx := context.Background()
	conn, err := server.Connect(ctx, "tenant")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	names := tableNames(tables)

	pf := newPrefetcher(ctx, det, conn, names, 4, 0)
	for _, tb := range tables {
		tm, _, err, ok := pf.awaitMeta(tb.Name)
		if !ok || err != nil {
			t.Fatalf("awaitMeta(%s): ok=%v err=%v", tb.Name, ok, err)
		}
		direct, _, err := det.fetchTableMeta(ctx, conn, tb.Name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tm, direct) {
			t.Fatalf("table %s: prefetched metadata differs from direct fetch", tb.Name)
		}

		cols := tableCols(tb)
		pf.tryStartScan(tb.Name, cols)
		content, _, err, ok := pf.awaitScan(tb.Name)
		if !ok || err != nil {
			t.Fatalf("awaitScan(%s): ok=%v err=%v", tb.Name, ok, err)
		}
		directScan, err := conn.ScanColumns(ctx, tb.Name, cols, simdb.ScanOptions{
			Strategy: det.Opts.Strategy, Rows: det.Opts.RowsToRead, Seed: det.Opts.ScanSeed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(content, directScan) {
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

	// Depth: with no sample yet the bound is one read in flight. Behind a
	// round trip the first scan holds that slot while the next two queue.
	slow := simdb.NewServer(simdb.PaperLatency(4))
	slow.LoadTables("tenant", tables)
	conn, err := slow.Connect(ctx, "tenant")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	pf := newPrefetcher(ctx, det, conn, nil, 4, 0)
	for _, tb := range tables[:3] {
		pf.tryStartScan(tb.Name, tableCols(tb))
	}
	pf.mu.Lock()
	inflight, queued, skipped := pf.inflight[scanRead], len(pf.queue), pf.skipped
	pf.mu.Unlock()
	if inflight != 1 || queued != 2 || skipped != 0 {
		t.Fatalf("depth brake: inflight=%d queued=%d skipped=%d, want 1/2/0", inflight, queued, skipped)
	}
	for _, tb := range tables[:3] {
		if pf.scanReady(tb.Name) == nil {
			t.Fatalf("table %s: a queued scan must still gate its s3", tb.Name)
		}
		if content, _, err, ok := pf.awaitScan(tb.Name); !ok || err != nil || len(content) == 0 {
			t.Fatalf("queued scan of %s never ran: ok=%v err=%v", tb.Name, ok, err)
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
	pf = newPrefetcher(ctx, det, conn2, nil, 4, 1)
	pf.tryStartScan(tables[0].Name, tableCols(tables[0]))
	<-pf.scanReady(tables[0].Name)
	pf.tryStartScan(tables[1].Name, tableCols(tables[1]))
	if pf.skipped != 1 || len(pf.queue) != 0 {
		t.Fatalf("byte brake: skipped=%d queued=%d, want 1/0", pf.skipped, len(pf.queue))
	}
	if pf.scanReady(tables[1].Name) != nil {
		t.Fatal("a skipped scan must leave s3 ungated (synchronous fallback)")
	}
	if _, _, _, ok := pf.awaitScan(tables[0].Name); !ok {
		t.Fatal("held scan must still be consumable")
	}
	pf.close()
	if pf.heldBytes != 0 {
		t.Fatalf("heldBytes = %d after consume+close, want 0", pf.heldBytes)
	}
}

// TestPrefetchDepthRule drives the estimator with synthetic samples — no
// clock, no storage: depth = 1 + ⌊latency × workers ÷ busy-per-table⌋.
func TestPrefetchDepthRule(t *testing.T) {
	ms := func(f float64) time.Duration { return time.Duration(f * float64(time.Millisecond)) }
	feed := func(e *depthEstimator, meta, scan time.Duration, stages [4]time.Duration) {
		if meta > 0 {
			e.observeLatency(metaRead, meta)
		}
		if scan > 0 {
			e.observeLatency(scanRead, scan)
		}
		for i, d := range stages {
			e.observeBusy(i, d)
		}
	}
	stages := [4]time.Duration{ms(0.1), ms(2.9), ms(0.1), ms(4.9)} // 8 ms a table

	e := &depthEstimator{workers: 4}
	if e.depth(metaRead) != 1 || e.depth(scanRead) != 1 {
		t.Fatal("no samples: depth must be 1")
	}
	e.observeLatency(metaRead, ms(15))
	e.observeBusy(0, ms(0.005))
	if e.depth(metaRead) != 1 {
		t.Fatal("no forward has reported yet: s1's microseconds are no estimate, depth must stay 1")
	}

	// 15 ms × 4 workers ÷ 8 ms = 7.5 tables consumed per round trip.
	feed(e, 0, 0, stages)
	if got := e.depth(metaRead); got != 8 {
		t.Fatalf("meta depth = %d, want 8", got)
	}
	// No scan has returned yet: a scan is at least a metadata round trip.
	if got := e.depth(scanRead); got != 8 {
		t.Fatalf("scan depth before its first sample = %d, want 8", got)
	}
	e.observeLatency(scanRead, ms(22))
	if got := e.depth(scanRead); got != 12 {
		t.Fatalf("scan depth = %d, want 12", got)
	}

	// A starved pool: the same reads and the same stage costs, only far
	// fewer of them per second. Nothing the estimator sees changes, so the
	// depth holds — it is sized from what the pool could consume.
	for i := 0; i < 100; i++ {
		feed(e, ms(15), ms(22), stages)
	}
	if m, s := e.depth(metaRead), e.depth(scanRead); m != 8 || s != 12 {
		t.Fatalf("depth moved to %d/%d on unchanged samples", m, s)
	}
	// One 8× straggler counts for an eighth of its excess (and errs on the
	// deep side); slower stages shrink the depth.
	e.observeLatency(metaRead, ms(120))
	if got := e.depth(metaRead); got != 15 {
		t.Fatalf("one 120 ms straggler moved meta depth to %d, want 15", got)
	}
	for i := 0; i < 100; i++ {
		feed(e, ms(15), ms(22), [4]time.Duration{ms(0.2), ms(5.8), ms(0.2), ms(9.8)})
	}
	if m := e.depth(metaRead); m != 4 {
		t.Fatalf("meta depth with 16 ms tables = %d, want 4", m)
	}

	// No storage latency: microsecond reads against millisecond tables
	// truncate to nothing ahead.
	z := &depthEstimator{workers: 8}
	for i := 0; i < 20; i++ {
		feed(z, 20*time.Microsecond, 60*time.Microsecond, stages)
	}
	if m, s := z.depth(metaRead), z.depth(scanRead); m != 1 || s != 1 {
		t.Fatalf("zero-latency depth = %d/%d, want 1/1", m, s)
	}
}

// TestPrefetchMetadataGroupsStayWhole: with a depth well below the table
// count the lookahead must keep reading whole groups — a group's slots are
// released together — instead of refilling one freed slot at a time with
// single-table queries.
func TestPrefetchMetadataGroupsStayWhole(t *testing.T) {
	det, ds := phase2Detector(t, 40)
	tables := allTables(ds)
	server := simdb.NewServer(simdb.PaperLatency(4)) // 20 ms a round trip
	server.LoadTables("tenant", tables)
	ctx := context.Background()
	conn, err := server.Connect(ctx, "tenant")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	names := tableNames(tables)
	before := server.Accounting().Snapshot().Queries
	pf := newPrefetcher(ctx, det, conn, names, 4, 0)
	// 10 ms a table on 4 workers against a 20 ms read: 8 tables a round trip.
	pf.observeBusy(1, 10*time.Millisecond)
	for _, name := range names {
		if _, _, err, ok := pf.awaitMeta(name); !ok || err != nil {
			t.Fatalf("awaitMeta(%s): ok=%v err=%v", name, ok, err)
		}
	}
	pf.close()
	pf.mu.Lock()
	depth := pf.est.depth(metaRead)
	pf.mu.Unlock()
	if depth < 8 || depth > 12 {
		t.Fatalf("derived depth %d, want about 9", depth)
	}
	if got := server.Accounting().Snapshot().Queries - before; got > len(tables)/4 {
		t.Fatalf("%d metadata queries for %d tables at depth %d: groups fragmented", got, len(tables), depth)
	}
}

// TestPrefetcherCancelDrains: cancelling the batch context mid-flight must
// let close() return promptly (all reads drained), account every issued,
// unconsumed read as waste — queued ones cost nothing — and leak no
// goroutines.
func TestPrefetcherCancelDrains(t *testing.T) {
	det, ds := phase2Detector(t, 30)
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
	names := tableNames(tables)

	before := runtime.NumGoroutine()
	pf := newPrefetcher(ctx, det, conn, names, 4, 0)
	// A pool that costs 100 µs a table against a 20 ms round trip: once the
	// first read returns the depth opens wide and groups go out.
	pf.observeBusy(1, 100*time.Microsecond)
	<-pf.metaReady(names[0])
	const scans = 3
	for _, tb := range tables[:scans] {
		pf.tryStartScan(tb.Name, tableCols(tb))
	}
	cancel()
	pf.mu.Lock()
	issuedMeta, queuedScans := pf.nextMeta, len(pf.queue)
	pf.mu.Unlock()
	if issuedMeta <= metaGroupCap {
		t.Fatalf("only %d metadata reads issued: the depth never opened", issuedMeta)
	}

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
	if want := issuedMeta + scans - queuedScans; pf.waste != want {
		t.Fatalf("waste = %d, want %d (every issued, unconsumed read)", pf.waste, want)
	}
	if pf.inflight != [2]int{} {
		t.Fatalf("in-flight slots after close: %v", pf.inflight)
	}
	waitGoroutines(t, before)
}

// TestPipelinedPrefetchHitsEveryRead is the regression test for the
// LIFO-versus-lookahead bug: workers used to start at the far end of the
// table list while the lookahead read the near end, so most reads were
// synchronous sleeps on a worker that no counter saw. Now every table's
// metadata and every scan is a consumed future, nothing is skipped, and the
// metadata arrives in grouped queries.
func TestPipelinedPrefetchHitsEveryRead(t *testing.T) {
	det, ds := phase2Detector(t, 32)
	tables := allTables(ds)
	// 100 ms a round trip against a pool that needs a few ms a table: even
	// under the race detector storage is the bottleneck and the depth opens.
	server := simdb.NewServer(simdb.PaperLatency(20))
	server.LoadTables("tenant", tables)
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
	if want := len(tables) + scanned; rep.PrefetchHits != want {
		t.Fatalf("PrefetchHits = %d, want %d (every metadata read and every scan)", rep.PrefetchHits, want)
	}
	if rep.PrefetchSkipped != 0 || rep.PrefetchWasted != 0 {
		t.Fatalf("skipped=%d wasted=%d, want 0/0", rep.PrefetchSkipped, rep.PrefetchWasted)
	}
	// Ledger: one list_tables, one query per scan, the rest is metadata.
	metaQueries := server.Accounting().Snapshot().Queries - 1 - scanned
	if metaQueries < 1 || metaQueries > len(tables)/2 {
		t.Fatalf("%d metadata queries for %d tables: reads are not grouped", metaQueries, len(tables))
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

// TestPipelinedPrefetchCancelWhileParked: with every table parked on a
// storage future — no worker running anything — a cancel must return
// DetectDatabase promptly with the context error on every table, consume
// nothing, and leave neither a parked job nor a goroutine behind.
func TestPipelinedPrefetchCancelWhileParked(t *testing.T) {
	det, ds := phase2Detector(t, 24)
	tables := allTables(ds)
	// Half a second a query: once list_tables has returned and the tables
	// are parked, no read comes back before the cancel.
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
	// Scale 10 → 100 ms connect, 50 ms per query: connect, list_tables, the
	// first metadata read and the first scans alone take over 250 ms, so a
	// cancel at 200 ms is guaranteed to land mid-run with reads in flight.
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

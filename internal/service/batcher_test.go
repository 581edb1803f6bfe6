package service

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/adtd"
	"repro/internal/core"
	"repro/internal/simdb"
)

// batchedService builds a service with micro-batching enabled around its own
// detector (sharing the test binary's trained model), so enabling batching
// never leaks into the plain-service tests that share testService's detector.
func batchedService(t *testing.T, window time.Duration, maxBatch int) *Service {
	t.Helper()
	testService(t) // ensure the shared model is trained
	det, err := core.NewDetector(shared.det.Model(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	svc := New(det)
	server := simdb.NewServer(simdb.NoLatency)
	server.LoadTables("tenantdb", shared.ds.Test)
	svc.RegisterTenant("tenantdb", server)
	svc.EnableBatching(window, maxBatch)
	t.Cleanup(svc.Close)
	return svc
}

// TestBatcherCoalescesConcurrentDetects is the acceptance scenario for the
// micro-batcher: N concurrent /v1/detect requests for distinct tables must
// share Phase-2 model forwards — fewer batches than submissions, visible in
// /v1/stats — while every request's per-column results stay identical to an
// unbatched run.
func TestBatcherCoalescesConcurrentDetects(t *testing.T) {
	plain, ds := testService(t)

	// Unbatched baseline, and the set of tables that actually reach Phase 2
	// (only those submit content batches to coalesce).
	var tables []string
	baseline := make(map[string]string)
	for _, tb := range ds.Test {
		rec := doJSON(t, plain.Handler(), http.MethodPost, "/v1/detect", DetectRequest{Database: "tenantdb", Tables: []string{tb.Name}})
		if rec.Code != http.StatusOK {
			t.Fatalf("baseline status %d: %s", rec.Code, rec.Body)
		}
		var resp DetectResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		cols, err := json.Marshal(resp.Tables)
		if err != nil {
			t.Fatal(err)
		}
		baseline[tb.Name] = string(cols)
		if resp.ScannedColumns > 0 && len(tables) < 4 {
			tables = append(tables, tb.Name)
		}
	}
	if len(tables) < 2 {
		t.Fatalf("need ≥ 2 tables with Phase-2 columns to coalesce, have %d", len(tables))
	}

	// A window much longer than per-request prep guarantees the concurrent
	// submissions overlap in the queue.
	svc := batchedService(t, 150*time.Millisecond, 64)
	h := svc.Handler()
	got := make([]string, len(tables))
	codes := make([]int, len(tables))
	var wg sync.WaitGroup
	for i, name := range tables {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			rec := doJSON(t, h, http.MethodPost, "/v1/detect", DetectRequest{Database: "tenantdb", Tables: []string{name}})
			codes[i] = rec.Code
			var resp DetectResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				return
			}
			cols, err := json.Marshal(resp.Tables)
			if err != nil {
				return
			}
			got[i] = string(cols)
		}(i, name)
	}
	wg.Wait()
	for i, name := range tables {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d (%s): status %d", i, name, codes[i])
		}
		if got[i] != baseline[name] {
			t.Errorf("table %s: batched results differ from unbatched baseline\nbatched:   %s\nunbatched: %s", name, got[i], baseline[name])
		}
	}

	rec := doJSON(t, h, http.MethodGet, "/v1/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status %d", rec.Code)
	}
	var stats StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	bs := stats.Batcher
	if bs == nil {
		t.Fatal("/v1/stats missing batcher block with batching enabled")
	}
	if bs.Submissions != len(tables) {
		t.Fatalf("submissions = %d, want %d", bs.Submissions, len(tables))
	}
	if bs.Batches >= bs.Submissions {
		t.Fatalf("batches = %d, submissions = %d: nothing coalesced", bs.Batches, bs.Submissions)
	}
	if bs.CoalescedBatches == 0 {
		t.Fatal("no batch merged more than one submission")
	}
	if bs.BatchedChunks < bs.Submissions {
		t.Fatalf("batched chunks = %d < submissions = %d", bs.BatchedChunks, bs.Submissions)
	}
	if bs.MaxBatchChunks < 2 {
		t.Fatalf("max batch chunks = %d, want ≥ 2", bs.MaxBatchChunks)
	}
}

// TestCoalescedBulkDetectSkipsBatcherQueue: a pipelined bulk request's
// cross-table coalescer has already merged all the company a flush can get,
// so with batching enabled its forwards must not be parked in the batcher's
// window — no submission, no taste_batcher_queue_delay_seconds observation —
// while the answers stay those of the sequential run.
func TestCoalescedBulkDetectSkipsBatcherQueue(t *testing.T) {
	plain, _ := testService(t)
	tablesOf := func(h http.Handler, req DetectRequest) (string, int) {
		t.Helper()
		rec := doJSON(t, h, http.MethodPost, "/v1/detect", req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		var resp DetectResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		cols, err := json.Marshal(resp.Tables)
		if err != nil {
			t.Fatal(err)
		}
		return string(cols), resp.ScannedColumns
	}
	want, _ := tablesOf(plain.Handler(), DetectRequest{Database: "tenantdb"})

	svc := batchedService(t, 50*time.Millisecond, 8)
	delays, subs := batcherQueueDelaySeconds.Count(), batcherSubmissionsTotal.Value()
	got, scanned := tablesOf(svc.Handler(), DetectRequest{Database: "tenantdb", Pipelined: true})
	if scanned == 0 {
		t.Fatal("no column reached Phase 2: nothing could have been queued")
	}
	if got != want {
		t.Fatal("coalesced bulk detect differs from the sequential answer")
	}
	if d, s := batcherQueueDelaySeconds.Count()-delays, batcherSubmissionsTotal.Value()-subs; d != 0 || s != 0 {
		t.Fatalf("coalescer flushes queued in the batcher: %d submissions, %d queue-delay observations", s, d)
	}
}

// TestBatcherDeadlineDegradedNot500: with batching enabled, a deadline that
// expires while work is queued or in flight inside the micro-batcher must
// surface as a 200 degraded response — the degradation ladder from the
// fault-tolerance PR must hold through the batcher.
func TestBatcherDeadlineDegradedNot500(t *testing.T) {
	// A window far beyond the deadline forces the deadline-aware flush (or
	// the waiter's own ctx) to resolve the request, never the window timer.
	svc := batchedService(t, 2*time.Second, 64)
	rec := doJSON(t, svc.Handler(), http.MethodPost, "/v1/detect", DetectRequest{Database: "tenantdb", DeadlineMillis: 30})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200: %s", rec.Code, rec.Body)
	}
	var resp DetectResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded {
		t.Fatalf("a 30 ms deadline against a 2 s batch window must degrade: %s", rec.Body)
	}
	for _, tb := range resp.Tables {
		for _, c := range tb.Columns {
			if c.Types == nil {
				t.Fatal("types must serialize as [] not null")
			}
			if c.Degraded && c.DegradeReason == "" {
				t.Fatal("degraded column without reason")
			}
		}
	}
}

// TestBatcherDropsDeadSubmissions: a submission whose context is already
// cancelled must get the context error back (the caller degrades it) and be
// dropped at flush without reaching the model.
func TestBatcherDropsDeadSubmissions(t *testing.T) {
	testService(t)
	b := NewBatcher(20*time.Millisecond, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.InferContentBatch(ctx, shared.det.Model(), make([]adtd.ContentRequest, 1), 5); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	b.Stop() // drains the queue, counting the drop
	if got := b.Stats().DeadlineDropped; got != 1 {
		t.Fatalf("DeadlineDropped = %d, want 1", got)
	}
	if got := b.Stats().Batches; got != 0 {
		t.Fatalf("Batches = %d: a dead submission must not reach the model", got)
	}
}

// TestBatcherStoppedRunsDirect: after Stop the batcher must keep answering —
// unbatched — so shutdown never wedges in-flight detection.
func TestBatcherStoppedRunsDirect(t *testing.T) {
	testService(t)
	b := NewBatcher(20*time.Millisecond, 8)
	b.Stop()
	out, err := b.InferContentBatch(context.Background(), shared.det.Model(), nil, 5)
	if err != nil || out != nil {
		t.Fatalf("empty submission after Stop: out=%v err=%v", out, err)
	}
	if got := b.Stats().Submissions; got != 0 {
		t.Fatalf("Submissions = %d after Stop, want 0 (direct path)", got)
	}
}

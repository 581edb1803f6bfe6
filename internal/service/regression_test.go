package service

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/simdb"
)

// TestConcurrentRetryAttribution is the regression test for the named-tables
// retry accounting: the handler used to diff the detector's *global* fault
// ledger around its loop, so a concurrent request against a flaky tenant
// leaked its retries into a clean tenant's response. Retries are now summed
// from the per-call TableResult counts, so the clean tenant must always
// report zero.
func TestConcurrentRetryAttribution(t *testing.T) {
	svc, ds := testService(t)
	flaky := simdb.NewServer(simdb.NoLatency)
	flaky.LoadTables("flakyconc", ds.Test)
	flaky.SetFaultProfile(simdb.FaultProfile{Seed: 99, ScanFailProb: 0.7, QueryFailProb: 0.2})
	svc.RegisterTenant("flakyconc", flaky)
	h := svc.Handler()

	tables := []string{ds.Test[0].Name, ds.Test[1].Name}
	const rounds = 6
	var wg sync.WaitGroup
	var flakyRetries atomic.Int64
	cleanRetries := make([]int, rounds)
	for i := 0; i < rounds; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := doJSON(t, h, http.MethodPost, "/v1/detect", DetectRequest{Database: "flakyconc", Tables: tables})
			var resp DetectResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Error(err)
				return
			}
			flakyRetries.Add(int64(resp.Retries))
		}(i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := doJSON(t, h, http.MethodPost, "/v1/detect", DetectRequest{Database: "tenantdb", Tables: tables})
			var resp DetectResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Error(err)
				return
			}
			cleanRetries[i] = resp.Retries
		}(i)
	}
	wg.Wait()
	for i, r := range cleanRetries {
		if r != 0 {
			t.Fatalf("round %d: clean tenant reported %d retries leaked from the flaky tenant (flaky total %d)",
				i, r, flakyRetries.Load())
		}
	}
}

// TestConcurrentDetectsMatchSerial: every table runs its own Phase-2 forward
// on the goroutine of its own request, so N single-table detects issued at
// once on one Service must return the bytes the same requests return one at
// a time (run under -race: the requests share the detector, its caches and
// the tensor workspace pools).
func TestConcurrentDetectsMatchSerial(t *testing.T) {
	svc, ds := testService(t)
	h := svc.Handler()
	detect := func(name string) (string, int) {
		rec := doJSON(t, h, http.MethodPost, "/v1/detect", DetectRequest{Database: "tenantdb", Tables: []string{name}})
		if rec.Code != http.StatusOK {
			t.Errorf("table %s: status %d: %s", name, rec.Code, rec.Body)
			return "", 0
		}
		var resp DetectResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Error(err)
			return "", 0
		}
		cols, err := json.Marshal(resp.Tables)
		if err != nil {
			t.Error(err)
		}
		return string(cols), resp.ScannedColumns
	}

	serial := make([]string, len(ds.Test))
	scanned := 0
	for i, tb := range ds.Test {
		var n int
		serial[i], n = detect(tb.Name)
		scanned += n
	}
	if scanned == 0 {
		t.Fatal("no column reached Phase 2: the requests never ran a content forward")
	}

	concurrent := make([]string, len(ds.Test))
	var wg sync.WaitGroup
	for i, tb := range ds.Test {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			concurrent[i], _ = detect(name)
		}(i, tb.Name)
	}
	wg.Wait()
	for i, tb := range ds.Test {
		if concurrent[i] != serial[i] {
			t.Errorf("table %s: concurrent result differs from the serial one\nconcurrent: %s\nserial:     %s", tb.Name, concurrent[i], serial[i])
		}
	}
}

// TestDetectDeadContextStopsTableLoop: after the deadline killed the context,
// the named-tables loop used to keep calling DetectTable once per remaining
// table, appending one identical error each. It now breaks out, reports the
// remaining tables as skipped, and appends a single summary error.
func TestDetectDeadContextStopsTableLoop(t *testing.T) {
	svc, ds := testService(t)
	var tables []string
	for _, tb := range ds.Test {
		tables = append(tables, tb.Name)
	}
	if len(tables) < 3 {
		t.Fatalf("need ≥ 3 test tables, have %d", len(tables))
	}
	rec := doJSON(t, svc.Handler(), http.MethodPost, "/v1/detect", DetectRequest{
		Database: "tenantdb", Tables: tables, DeadlineMillis: 1,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp DetectResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded {
		t.Fatalf("expired deadline must mark the response degraded: %s", rec.Body)
	}
	if len(resp.Errors) >= len(tables) {
		t.Fatalf("dead context produced %d errors for %d tables — the loop did not stop", len(resp.Errors), len(tables))
	}
	for _, tb := range resp.Tables {
		if tb.Skipped {
			if tb.SkipReason == "" {
				t.Fatalf("skipped table %s without a reason", tb.Table)
			}
			if len(tb.Columns) != 0 {
				t.Fatalf("skipped table %s carries columns", tb.Table)
			}
		}
	}
}

// TestDetectTraceReturnsSpanTree: "trace": true must return the request's
// span tree with per-stage children named s<N>:<table>.
func TestDetectTraceReturnsSpanTree(t *testing.T) {
	svc, ds := testService(t)
	rec := doJSON(t, svc.Handler(), http.MethodPost, "/v1/detect", DetectRequest{
		Database: "tenantdb", Tables: []string{ds.Test[0].Name}, Trace: true,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp DetectResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Trace == nil {
		t.Fatalf("no trace in response: %s", rec.Body)
	}
	stages := map[string]bool{}
	resp.Trace.Walk(func(n obs.SpanNode) {
		if i := strings.IndexByte(n.Name, ':'); i > 0 {
			stages[n.Name[:i]] = true
		}
	})
	for _, want := range []string{"s1", "s2", "s3", "s4"} {
		if !stages[want] {
			t.Fatalf("trace misses stage %s: have %v", want, stages)
		}
	}
	// Untraced requests must not pay for or return a trace.
	rec = doJSON(t, svc.Handler(), http.MethodPost, "/v1/detect", DetectRequest{
		Database: "tenantdb", Tables: []string{ds.Test[0].Name},
	})
	var untraced DetectResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &untraced); err != nil {
		t.Fatal(err)
	}
	if untraced.Trace != nil {
		t.Fatal("trace returned without being requested")
	}
}

// metricValue extracts one sample's value from a Prometheus text body.
func metricValue(t *testing.T, text, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, series+" ") {
			v, err := strconv.ParseFloat(strings.TrimSpace(line[len(series)+1:]), 64)
			if err != nil {
				t.Fatalf("bad sample %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("series %s not found", series)
	return 0
}

// TestMetricsEndpoint drives a burst of mixed ok/degraded/error requests and
// asserts /metrics (a) parses as Prometheus text with consistent histograms,
// (b) carries the core series, and (c) keeps counters monotonic across
// scrapes.
func TestMetricsEndpoint(t *testing.T) {
	svc, ds := testService(t)
	h := svc.Handler()

	doJSON(t, h, http.MethodPost, "/v1/detect", DetectRequest{Database: "tenantdb", Pipelined: true})
	doJSON(t, h, http.MethodPost, "/v1/detect", DetectRequest{Database: "tenantdb", DeadlineMillis: 1})
	doJSON(t, h, http.MethodPost, "/v1/detect", DetectRequest{Database: "ghost"})
	doJSON(t, h, http.MethodPost, "/v1/detect", DetectRequest{Database: "tenantdb", Tables: []string{ds.Test[0].Name}})

	rec := doJSON(t, h, http.MethodGet, "/metrics", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	body := rec.Body.String()
	if err := obs.CheckText(body); err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	for _, series := range []string{
		`taste_stage_seconds_bucket{stage="s1",le="+Inf"}`,
		`taste_stage_seconds_bucket{stage="s4",le="+Inf"}`,
		`taste_pipeline_queue_wait_seconds_count{kind="prep",stage="s1",stolen="false"}`,
		`taste_detector_forward_panics_total`,
		`taste_detect_requests_total{outcome="ok"}`,
		`taste_detect_requests_total{outcome="degraded"}`,
		`taste_detect_requests_total{outcome="error"}`,
		`taste_detect_request_seconds_count`,
		`taste_detect_scanned_ratio_count`,
		`taste_cache_hits`,
		`taste_detector_tables_total`,
		`taste_adtd_forwards_total{kind="meta"}`,
		`taste_simdb_op_seconds_count{op="scan"}`,
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics misses %s", series)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	if v := metricValue(t, body, `taste_detect_requests_total{outcome="ok"}`); v < 1 {
		t.Fatalf("ok outcomes = %v, want ≥ 1", v)
	}
	if v := metricValue(t, body, `taste_detect_requests_total{outcome="degraded"}`); v < 1 {
		t.Fatalf("degraded outcomes = %v, want ≥ 1", v)
	}
	if v := metricValue(t, body, `taste_detect_requests_total{outcome="error"}`); v < 1 {
		t.Fatalf("error outcomes = %v, want ≥ 1", v)
	}

	// Counter monotonicity across scrapes with traffic in between.
	before := metricValue(t, body, `taste_detect_requests_total{outcome="ok"}`)
	doJSON(t, h, http.MethodPost, "/v1/detect", DetectRequest{Database: "tenantdb", Tables: []string{ds.Test[0].Name}})
	rec = doJSON(t, h, http.MethodGet, "/metrics", nil)
	if err := obs.CheckText(rec.Body.String()); err != nil {
		t.Fatalf("second scrape does not parse: %v", err)
	}
	after := metricValue(t, rec.Body.String(), `taste_detect_requests_total{outcome="ok"}`)
	if after < before+1 {
		t.Fatalf("ok counter not monotonic: %v then %v", before, after)
	}
}

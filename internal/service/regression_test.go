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
// on the goroutine of its own request, on a connection checked out for that
// request alone, so N clients issuing single-table detects at once on one
// Service must return the bytes the same requests return one at a time with
// no pool behind them — each on a Service of its own, so every reference
// pays its own handshake (run under -race: the requests share the detector,
// its caches, the tensor workspace pools and the tenant's idle list).
func TestConcurrentDetectsMatchSerial(t *testing.T) {
	_, ds := testService(t)
	serial := referenceAnswers(t, ds)
	scanned := false
	for _, ref := range serial {
		scanned = scanned || strings.Contains(ref, `"scanned":true`)
	}
	if !scanned {
		t.Fatal("no column reached Phase 2: the requests never ran a content forward")
	}

	// More clients than the idle cap, each walking every table from its own
	// starting point, so checkouts, releases into a full idle list and
	// misses all interleave.
	svc, _ := testService(t)
	h := svc.Handler()
	tn, _ := svc.tenant("tenantdb")
	const clients = 2 * maxIdleConns
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := range ds.Test {
				name := ds.Test[(c+k)%len(ds.Test)].Name
				// Not detectOne: t.Fatal must stay on the test's goroutine.
				rec := doJSON(t, h, http.MethodPost, "/v1/detect", DetectRequest{Database: "tenantdb", Tables: []string{name}})
				var resp DetectResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); rec.Code != http.StatusOK || err != nil {
					t.Errorf("client %d, table %s: status %d, decode error %v: %s", c, name, rec.Code, err, rec.Body)
					continue
				}
				cols, err := json.Marshal(resp.Tables)
				if err != nil {
					t.Error(err)
				}
				if got := string(cols); got != serial[name] {
					t.Errorf("client %d, table %s: concurrent result differs from the serial one\nconcurrent: %s\nserial:     %s",
						c, name, got, serial[name])
				}
				if n := len(idleConns(tn)); n > maxIdleConns {
					t.Errorf("idle list holds %d connections, cap is %d", n, maxIdleConns)
				}
			}
		}(c)
	}
	wg.Wait()
	opened := tn.server.Accounting().Snapshot().Connections
	if total := clients * len(ds.Test); opened >= total {
		t.Fatalf("%d handshakes for %d requests: nothing was reused", opened, total)
	}
	idle := idleConns(tn)
	if len(idle) == 0 || len(idle) > maxIdleConns {
		t.Fatalf("%d idle connections after the burst, want 1..%d", len(idle), maxIdleConns)
	}
	svc.Close()
	assertClosedOnce(t, idle...)
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
		} else {
			stages[n.Name] = true
		}
	})
	// "connect" is the pool checkout: a handshake on a miss, ≈ 0 on a hit.
	for _, want := range []string{"connect", "s1", "s2", "s3", "s4"} {
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
		`taste_connpool_checkouts_total{outcome="hit"}`,
		`taste_connpool_checkouts_total{outcome="miss"}`,
		`taste_connpool_discards_total`,
		`taste_connpool_idle`,
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

package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
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

// TestDetectDeadContextStopsTableLoop: a deadline that fires mid-batch ends
// every table exactly once — answered (a table Phase 1 finished is salvaged,
// its unresolved columns degraded) or skipped with a reason — and adds at
// most one deadline error, never one per unreached table. The rule is one
// for both request shapes and both schedulers.
//
// The batch is timed by the tenant's round trip: with histograms on, the
// first half of the tables already has statistics and the second half needs
// an ANALYZE, so a deadline of 1.5 round trips fires after the one schema
// read returned and before any ANALYZE can: the second half is caught before
// Phase 1 on every run, while the first half may already be answered.
func TestDetectDeadContextStopsTableLoop(t *testing.T) {
	_, ds := testService(t)
	var tables []string
	cols := map[string]int{}
	for _, tb := range ds.Test {
		tables = append(tables, tb.Name)
		cols[tb.Name] = len(tb.Columns)
	}
	if len(tables) < 3 {
		t.Fatalf("need ≥ 3 test tables, have %d", len(tables))
	}
	opts := shared.det.Opts
	opts.UseHistogram = true
	det, err := core.NewDetector(shared.det.Model(), opts)
	if err != nil {
		t.Fatal(err)
	}
	latency := simdb.PaperLatency(20)
	for _, named := range []bool{true, false} {
		for _, pipelined := range []bool{false, true} {
			t.Run(fmt.Sprintf("named=%v/pipelined=%v", named, pipelined), func(t *testing.T) {
				svc := New(det)
				slow := simdb.NewServer(latency)
				slow.LoadTables("slowdb", ds.Test)
				svc.RegisterTenant("slowdb", slow)
				h := svc.Handler()
				// Analyze the first half, pooling the connection so the
				// deadline's request pays no handshake.
				detectOne(t, h, DetectRequest{Database: "slowdb", Tables: tables[:len(tables)/2], Pipelined: true})
				req := DetectRequest{Database: "slowdb", Pipelined: pipelined, DeadlineMillis: (latency.QueryRoundTrip * 3 / 2).Milliseconds()}
				if named {
					req.Tables = tables
				}
				resp := detectOne(t, h, req)
				if len(resp.Tables) != len(tables) {
					t.Fatalf("%d tables in the response, want all %d exactly once: %+v", len(resp.Tables), len(tables), resp.Tables)
				}
				seen, skipped := map[string]bool{}, 0
				for _, tb := range resp.Tables {
					if tb.Skipped {
						skipped++
					}
					switch {
					case seen[tb.Table]:
						t.Fatalf("table %s appears twice", tb.Table)
					case tb.Skipped && (tb.SkipReason == "" || len(tb.Columns) != 0):
						t.Fatalf("skipped table %s: reason %q, %d columns", tb.Table, tb.SkipReason, len(tb.Columns))
					case !tb.Skipped && len(tb.Columns) != cols[tb.Table]:
						t.Fatalf("table %s answered %d of %d columns", tb.Table, len(tb.Columns), cols[tb.Table])
					}
					seen[tb.Table] = true
				}
				t.Logf("%d ms deadline: %d tables answered (%d columns degraded), %d skipped",
					req.DeadlineMillis, len(tables)-skipped, resp.DegradedColumns, skipped)
				if !resp.Degraded || skipped < len(tables)-len(tables)/2 {
					t.Fatalf("degraded %v, %d tables skipped: the deadline must catch every table still waiting on its ANALYZE", resp.Degraded, skipped)
				}
				if len(resp.Errors) != 1 || !strings.Contains(resp.Errors[0], "deadline exceeded") {
					t.Fatalf("errors %v: want exactly one, the deadline's", resp.Errors)
				}
			})
		}
	}
}

// TestNamedTablesMatchBulkInOneRoundTrip: a request that names tables runs
// the whole-database path — one metadata query however many names, on the
// scheduler the request asks for. Named sequential, named pipelined and bulk
// requests, run at once, answer byte for byte the same, and each reads the
// tenant's metadata in one table_metadata query.
func TestNamedTablesMatchBulkInOneRoundTrip(t *testing.T) {
	svc, ds := testService(t)
	h := svc.Handler()
	tn, _ := svc.tenant("tenantdb")
	var names []string
	for _, tb := range ds.Test {
		names = append(names, tb.Name)
	}
	reqs := []DetectRequest{
		{Database: "tenantdb", Tables: names},
		{Database: "tenantdb", Tables: names, Pipelined: true},
		{Database: "tenantdb"},
	}
	metaOps := func() float64 {
		body := doJSON(t, h, http.MethodGet, "/metrics", nil).Body.String()
		return metricValue(t, body, `taste_simdb_op_seconds_count{op="table_metadata"}`)
	}
	ops, queries := metaOps(), tn.server.Accounting().Snapshot().Queries
	resps := make([]DetectResponse, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req DetectRequest) {
			defer wg.Done()
			// Not detectOne: t.Fatal must stay on the test's goroutine.
			rec := doJSON(t, h, http.MethodPost, "/v1/detect", req)
			if err := json.Unmarshal(rec.Body.Bytes(), &resps[i]); rec.Code != http.StatusOK || err != nil {
				t.Errorf("%+v: status %d, decode error %v: %s", req, rec.Code, err, rec.Body)
			}
		}(i, req)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if got := metaOps() - ops; got != float64(len(reqs)) {
		t.Fatalf("%d requests made %v table_metadata queries, want one each", len(reqs), got)
	}
	// Every other query is one table's one content scan.
	scans := 0
	for _, resp := range resps {
		for _, tb := range resp.Tables {
			for _, c := range tb.Columns {
				if c.Scanned {
					scans++
					break
				}
			}
		}
	}
	if got := tn.server.Accounting().Snapshot().Queries - queries; got != len(reqs)+scans {
		t.Fatalf("ledger counted %d queries, want %d metadata reads + %d scans", got, len(reqs), scans)
	}
	bulk := tablesJSON(t, resps[2])
	if scans == 0 || len(resps[2].Tables) != len(names) {
		t.Fatalf("bulk answered %d of %d tables with %d scans: %s", len(resps[2].Tables), len(names), scans, bulk)
	}
	for i, resp := range resps[:2] {
		if got := tablesJSON(t, resp); got != bulk {
			t.Fatalf("%+v answers differently from the bulk request\nnamed: %s\nbulk:  %s", reqs[i], got, bulk)
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
	for _, want := range []string{"connect", "schema_metadata", "s1", "s2", "s3", "s4"} {
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
		`taste_pipeline_queue_wait_seconds_count{kind="infer",stage="s1"}`,
		`taste_pipeline_stage_panics_total`,
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

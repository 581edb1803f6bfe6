package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/adtd"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/simdb"
	"repro/internal/tensor"
)

var shared struct {
	once sync.Once
	det  *core.Detector
	ds   *corpus.Dataset
	err  error
}

// testService builds a service around a lightly trained detector once per
// test binary.
func testService(t *testing.T) (*Service, *corpus.Dataset) {
	t.Helper()
	shared.once.Do(func() {
		ds := corpus.Generate(corpus.DefaultRegistry(), corpus.WikiTableProfile(60), 1)
		tok := adtd.BuildVocabulary(ds.Train, ds.Registry.Names(), 2000)
		types := adtd.NewTypeSpace(ds.Registry.Names())
		m, err := adtd.New(adtd.ReproScale(), tok, types, 3)
		if err != nil {
			shared.err = err
			return
		}
		cfg := adtd.DefaultTrainConfig()
		cfg.Epochs = 2
		if _, err := adtd.FineTune(m, ds.Train, cfg); err != nil {
			shared.err = err
			return
		}
		det, err := core.NewDetector(m, core.DefaultOptions())
		if err != nil {
			shared.err = err
			return
		}
		shared.det, shared.ds = det, ds
	})
	if shared.err != nil {
		t.Fatal(shared.err)
	}
	svc := New(shared.det)
	server := simdb.NewServer(simdb.NoLatency)
	server.LoadTables("tenantdb", shared.ds.Test)
	svc.RegisterTenant("tenantdb", server)
	return svc, shared.ds
}

func doJSON(t *testing.T, h http.Handler, method, path string, body interface{}) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestHealthz(t *testing.T) {
	svc, _ := testService(t)
	rec := doJSON(t, svc.Handler(), http.MethodGet, "/healthz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("body %q", rec.Body.String())
	}
}

func TestTypesEndpoint(t *testing.T) {
	svc, ds := testService(t)
	rec := doJSON(t, svc.Handler(), http.MethodGet, "/v1/types", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp struct {
		Types      []string `json:"types"`
		Background string   `json:"background"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Types) != ds.Registry.Len() {
		t.Fatalf("types = %d, want %d", len(resp.Types), ds.Registry.Len())
	}
	if resp.Background != corpus.NullType {
		t.Fatalf("background = %q", resp.Background)
	}
	if rec := doJSON(t, svc.Handler(), http.MethodPost, "/v1/types", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST should be rejected, got %d", rec.Code)
	}
}

func TestDetectWholeDatabase(t *testing.T) {
	svc, ds := testService(t)
	rec := doJSON(t, svc.Handler(), http.MethodPost, "/v1/detect", DetectRequest{Database: "tenantdb", Pipelined: true})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp DetectResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Tables) != len(ds.Test) {
		t.Fatalf("tables = %d, want %d", len(resp.Tables), len(ds.Test))
	}
	if resp.TotalColumns == 0 {
		t.Fatal("no columns")
	}
	for _, tb := range resp.Tables {
		for _, c := range tb.Columns {
			if c.Types == nil {
				t.Fatal("types must serialize as [] not null")
			}
			if c.Scanned != (c.Phase == 2) {
				t.Fatal("scanned flag inconsistent with phase")
			}
		}
	}
}

// TestScannedFlagsCountScannedColumns: a column whose content s3 read but
// whose Phase 2 then degraded (here every content forward panics, on a
// classifier weight cut one element short) still reports "scanned": true,
// so on every response the per-column flags add up to scanned_columns.
func TestScannedFlagsCountScannedColumns(t *testing.T) {
	ds := corpus.Generate(corpus.DefaultRegistry(), corpus.SmallTablesProfile(6), 3)
	tok := adtd.BuildVocabulary(ds.Train, ds.Registry.Names(), 2000)
	cfg := adtd.ReproScale()
	cfg.Layers, cfg.Hidden, cfg.Heads, cfg.Intermediate = 2, 32, 2, 48
	cfg.MetaClassifierHidden, cfg.ContentClassifierHidden = 32, 32
	m, err := adtd.New(cfg, tok, adtd.NewTypeSpace(ds.Registry.Names()), 7)
	if err != nil {
		t.Fatal(err)
	}
	w := m.ContCls.Hidden.W
	w.Data = w.Data[: len(w.Data)-1 : len(w.Data)-1]
	opts := core.DefaultOptions()
	opts.Alpha, opts.Beta = 0.01, 0.99 // the untrained model is uncertain about every column
	det, err := core.NewDetector(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(det)
	server := simdb.NewServer(simdb.NoLatency)
	server.LoadTables("tenantdb", ds.Test)
	svc.RegisterTenant("tenantdb", server)

	for _, req := range []DetectRequest{
		{Database: "tenantdb"},
		{Database: "tenantdb", Pipelined: true},
		{Database: "tenantdb", Tables: []string{ds.Test[0].Name}},
	} {
		rec := doJSON(t, svc.Handler(), http.MethodPost, "/v1/detect", req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		var resp DetectResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.ScannedColumns == 0 || resp.DegradedColumns == 0 {
			t.Fatalf("request %+v: scanned %d, degraded %d; want both > 0", req, resp.ScannedColumns, resp.DegradedColumns)
		}
		flagged := 0
		for _, tb := range resp.Tables {
			for _, c := range tb.Columns {
				if c.Scanned {
					flagged++
				}
				if c.Degraded && !strings.Contains(c.DegradeReason, "content forward panic") {
					t.Fatalf("column %s.%s degraded for %q, want the content forward's panic", tb.Table, c.Column, c.DegradeReason)
				}
			}
		}
		if flagged != resp.ScannedColumns {
			t.Fatalf("request %+v: %d columns flagged scanned, scanned_columns %d", req, flagged, resp.ScannedColumns)
		}
	}
}

func TestDetectSpecificTables(t *testing.T) {
	svc, ds := testService(t)
	want := ds.Test[0].Name
	rec := doJSON(t, svc.Handler(), http.MethodPost, "/v1/detect", DetectRequest{Database: "tenantdb", Tables: []string{want}})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp DetectResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Tables) != 1 || resp.Tables[0].Table != want {
		t.Fatalf("resp tables = %+v", resp.Tables)
	}
}

func TestDetectUnknownDatabase(t *testing.T) {
	svc, _ := testService(t)
	rec := doJSON(t, svc.Handler(), http.MethodPost, "/v1/detect", DetectRequest{Database: "ghost"})
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status %d", rec.Code)
	}
}

func TestDetectBadBody(t *testing.T) {
	svc, _ := testService(t)
	req := httptest.NewRequest(http.MethodPost, "/v1/detect", strings.NewReader("{not json"))
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d", rec.Code)
	}
}

func TestDetectUnknownTableReportsError(t *testing.T) {
	svc, _ := testService(t)
	rec := doJSON(t, svc.Handler(), http.MethodPost, "/v1/detect", DetectRequest{Database: "tenantdb", Tables: []string{"ghost_table"}})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var resp DetectResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Errors) != 1 {
		t.Fatalf("errors = %v", resp.Errors)
	}
}

func TestFeedbackEndpoint(t *testing.T) {
	svc, ds := testService(t)
	table := ds.Test[0]
	rec := doJSON(t, svc.Handler(), http.MethodPost, "/v1/feedback", FeedbackRequest{
		Database: "tenantdb",
		Table:    table.Name,
		Column:   table.Columns[0].Name,
		Labels:   []string{"email"},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), `"applied":true`) {
		t.Fatalf("body %s", rec.Body)
	}
	// Unknown column.
	rec = doJSON(t, svc.Handler(), http.MethodPost, "/v1/feedback", FeedbackRequest{
		Database: "tenantdb", Table: table.Name, Column: "ghost",
	})
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status %d", rec.Code)
	}
}

func TestStatsEndpoint(t *testing.T) {
	svc, _ := testService(t)
	// Produce some load first.
	doJSON(t, svc.Handler(), http.MethodPost, "/v1/detect", DetectRequest{Database: "tenantdb"})
	rec := doJSON(t, svc.Handler(), http.MethodGet, "/v1/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var resp StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	snap, ok := resp.Tenants["tenantdb"]
	if !ok {
		t.Fatal("missing tenant stats")
	}
	if snap.Queries == 0 {
		t.Fatal("no queries recorded")
	}
	if resp.Kernels == "" || resp.Kernels != tensor.Kernels() {
		t.Fatalf("kernels = %q, want tensor.Kernels() = %q", resp.Kernels, tensor.Kernels())
	}
}

// TestDetectDeadlineDegradedNot500: deadline_ms=1 cannot possibly finish
// Phase 2, but the endpoint must still answer 200 with a valid, degraded
// response — a deadline is an SLO, not a server error.
func TestDetectDeadlineDegradedNot500(t *testing.T) {
	svc, _ := testService(t)
	rec := doJSON(t, svc.Handler(), http.MethodPost, "/v1/detect", DetectRequest{Database: "tenantdb", DeadlineMillis: 1})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp DetectResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded {
		t.Fatalf("a 1 ms deadline must degrade the response: %s", rec.Body)
	}
	// Whatever survived the deadline must be well-formed.
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

// TestDetectNegativeDeadlineRejected: a negative deadline_ms or
// model_version is a bad request, not a silent default.
func TestDetectNegativeDeadlineRejected(t *testing.T) {
	svc, _ := testService(t)
	for _, c := range []struct {
		name string
		req  DetectRequest
	}{
		{"deadline_ms", DetectRequest{Database: "tenantdb", DeadlineMillis: -5}},
		{"model_version", DetectRequest{Database: "tenantdb", ModelVersion: -1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			rec := doJSON(t, svc.Handler(), http.MethodPost, "/v1/detect", c.req)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", rec.Code, rec.Body)
			}
		})
	}
}

// TestDetectFaultyTenant is the acceptance scenario: a tenant database with
// a seeded FaultProfile injecting transient scan errors must still yield a
// typed result for every column of every table — some degraded — with the
// retries visible in the stats ledger.
func TestDetectFaultyTenant(t *testing.T) {
	svc, ds := testService(t)
	flaky := simdb.NewServer(simdb.NoLatency)
	flaky.LoadTables("flakydb", ds.Test)
	flaky.SetFaultProfile(simdb.FaultProfile{Seed: 77, ScanFailProb: 0.6, QueryFailProb: 0.1})
	svc.RegisterTenant("flakydb", flaky)

	rec := doJSON(t, svc.Handler(), http.MethodPost, "/v1/detect", DetectRequest{Database: "flakydb"})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp DetectResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Tables)+len(resp.Errors) < len(ds.Test) {
		t.Fatalf("tables %d + errors %d < %d", len(resp.Tables), len(resp.Errors), len(ds.Test))
	}
	typed := 0
	for _, tb := range resp.Tables {
		for _, c := range tb.Columns {
			if c.Types == nil {
				t.Fatalf("column %s.%s: nil types", tb.Table, c.Column)
			}
			typed++
		}
	}
	if typed == 0 {
		t.Fatal("no columns typed")
	}
	if resp.DegradedColumns == 0 && resp.Retries == 0 {
		t.Fatalf("a 0.6 scan-failure rate must cause retries or degradations: %s", rec.Body)
	}

	// The retry/degradation ledgers surface through /v1/stats.
	srec := doJSON(t, svc.Handler(), http.MethodGet, "/v1/stats", nil)
	if srec.Code != http.StatusOK {
		t.Fatalf("stats status %d", srec.Code)
	}
	var stats StatsResponse
	if err := json.Unmarshal(srec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	snap, ok := stats.Tenants["flakydb"]
	if !ok {
		t.Fatal("missing flakydb tenant stats")
	}
	if snap.Faults == 0 {
		t.Fatal("tenant ledger recorded no injected faults")
	}
	if snap.Retries != resp.Retries {
		t.Fatalf("tenant ledger retries %d != response retries %d", snap.Retries, resp.Retries)
	}
	if stats.Detector.Retries < resp.Retries {
		t.Fatalf("detector ledger retries %d < response retries %d", stats.Detector.Retries, resp.Retries)
	}
	if resp.DegradedColumns > 0 && stats.Detector.DegradedColumns == 0 {
		t.Fatal("detector ledger missed the degradations")
	}
}

// TestDetectSpecificTablesWithDeadline exercises the per-table path's
// deadline handling: an expired deadline must still produce a 200.
func TestDetectSpecificTablesWithDeadline(t *testing.T) {
	svc, ds := testService(t)
	rec := doJSON(t, svc.Handler(), http.MethodPost, "/v1/detect", DetectRequest{
		Database: "tenantdb", Tables: []string{ds.Test[0].Name}, DeadlineMillis: 1,
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
}

// FuzzHandleDetect feeds arbitrary bodies to /v1/detect: whatever comes in,
// the handler must answer with a well-formed JSON response and never panic.
func FuzzHandleDetect(f *testing.F) {
	seedT := &testing.T{}
	svc, _ := testService(seedT)
	if seedT.Failed() {
		f.Fatal("service setup failed")
	}
	h := svc.Handler()
	f.Add(`{"database":"tenantdb"}`)
	f.Add(`{"database":"tenantdb","deadline_ms":1}`)
	f.Add(`{"database":"tenantdb","tables":["ghost"],"pipelined":true}`)
	f.Add(`{"database":"ghost"}`)
	f.Add(`{not json`)
	f.Add(`{"deadline_ms":-1}`)
	f.Add(``)
	f.Add(`{"database":"tenantdb","deadline_ms":9999999999999}`)
	f.Add(`{"database":"tenantdb","model_version":-1}`)
	// Fields the schema no longer has (retired knobs of old clients) are ignored.
	f.Add(`{"database":"tenantdb","tables":["ghost"],"pipelined":true,"retired_knob":4}`)
	f.Add(`{"database":"tenantdb","pipelined":true,"quantize":true,"batch_chunks":8}`)
	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/detect", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound:
		default:
			t.Fatalf("unexpected status %d for body %q", rec.Code, body)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("invalid JSON response for body %q: %s", body, rec.Body)
		}
	})
}

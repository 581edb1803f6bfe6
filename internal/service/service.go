// Package service exposes the Taste detector as a JSON-over-HTTP cloud
// service, the deployment surface the paper targets (§2.2): tenants
// register their databases with the service and request semantic type
// detection without granting it more access than the two-phase framework
// needs. Built on net/http only.
//
// Endpoints:
//
//	GET  /healthz              liveness probe
//	GET  /v1/types             the semantic type domain
//	POST /v1/detect            {"database": "...", "tables": ["t1"]?, "pipelined": bool,
//	                            "deadline_ms": 0}
//	POST /v1/feedback          {"database", "table", "column", "labels": [...]}
//	GET  /v1/stats             accounting ledger + cache + fault statistics
//	GET  /metrics              Prometheus text exposition of the obs registry
//
// A detect request with deadline_ms > 0 runs under a context deadline that
// propagates into every prep and inference stage. When the deadline (or a
// flaky tenant database) prevents Phase 2, the response still carries typed
// results for every reachable column, with "degraded": true and a
// per-column reason — a deadline is an SLO, not a 500.
//
// Requests that read a tenant database run on a connection checked out of
// that tenant's pool of warm connections (connpool.go), so the handshake is
// paid only when none is waiting.
package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adtd"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/metafeat"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/simdb"
	"repro/internal/tensor"
)

// Service wires a detector to one or more tenant database servers.
type Service struct {
	detector *core.Detector
	mu       sync.RWMutex
	tenants  map[string]*tenant
	closed   bool // Close ran: tenants registered from now on are born retired

	defaultMode     core.ExecMode
	defaultDeadline time.Duration
	flight          *cache.Group[flightResult]

	// Model registry state (models.go). regMu guards the registry handle
	// and the materialized-version cache; the serving version and swap
	// count are atomics so the stats path never takes the lock.
	regMu          sync.Mutex
	registry       *registry.Registry
	modelName      string
	verCache       map[int]*adtd.Model
	verOrder       []int
	servingVersion atomic.Int64
	swaps          atomic.Int64
}

// New creates a service around a detector. Pipelined requests default to
// the paper's 2/2 pool sizes; SetDefaultMode overrides that (e.g. with
// core.AutoMode() when the deployment sizes pools from the machine).
func New(det *core.Detector) *Service {
	return &Service{
		detector:    det,
		tenants:     make(map[string]*tenant),
		defaultMode: core.PipelinedMode(),
		flight:      cache.NewGroup[flightResult](obs.Default.Counter(cache.MetricCoalesced)),
	}
}

// SetDefaultMode sets the execution mode used for pipelined detect requests
// that do not carry their own worker counts. Call before serving traffic.
func (s *Service) SetDefaultMode(mode core.ExecMode) { s.defaultMode = mode }

// SetDefaultDeadline sets the per-request deadline applied to detect
// requests that do not carry their own deadline_ms (0 disables). Call
// before serving traffic.
func (s *Service) SetDefaultDeadline(d time.Duration) { s.defaultDeadline = d }

// EnableBatching does nothing.
//
// Deprecated: nothing to enable; kept so bench/ compiles — delete with the
// next [benchmark] PR.
func (s *Service) EnableBatching(window time.Duration, maxBatch int) {}

// Close closes every idle pooled connection. Requests still in flight close
// theirs on release instead of pooling them, so once they have returned the
// service holds no open connection. Call it after the HTTP server has shut
// down.
func (s *Service) Close() {
	s.mu.Lock()
	s.closed = true
	tenants := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		tenants = append(tenants, t)
	}
	s.mu.Unlock()
	for _, t := range tenants {
		t.retire()
	}
}

// RegisterTenant attaches a database server under the given database name.
// Re-registering a name replaces the server and drops the old one's idle
// connections.
func (s *Service) RegisterTenant(dbName string, server *simdb.Server) {
	s.mu.Lock()
	old := s.tenants[dbName]
	s.tenants[dbName] = &tenant{server: server, retired: s.closed}
	s.mu.Unlock()
	if old != nil {
		old.retire()
	}
}

func (s *Service) tenant(dbName string) (*tenant, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tenants[dbName]
	return t, ok
}

// Handler returns the HTTP handler for the service.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/v1/types", s.handleTypes)
	mux.HandleFunc("/v1/detect", s.handleDetect)
	mux.HandleFunc("/v1/feedback", s.handleFeedback)
	mux.HandleFunc("/v1/models", s.handleModels)
	mux.HandleFunc("/v1/models/swap", s.handleModelSwap)
	mux.HandleFunc("/v1/models/publish", s.handleModelPublish)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.Handle("/metrics", s.MetricsHandler())
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Service) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Service) handleTypes(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	names := s.detector.Model().Types.Names()
	writeJSON(w, http.StatusOK, map[string]interface{}{"types": names[1:], "background": names[0]})
}

// handleDetect is the HTTP front end over the transport-agnostic Detect
// core (detect.go): decode, execute, encode.
func (s *Service) handleDetect(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req DetectRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		detectOutcomes["error"].Inc()
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	resp, apiErr := s.Detect(r.Context(), req)
	if apiErr != nil {
		writeError(w, apiErr.Status, "%s", apiErr.Msg)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// FeedbackRequest is the /v1/feedback payload: the tenant corrects a
// column's types; the service adapts online (§8).
type FeedbackRequest struct {
	Database string   `json:"database"`
	Table    string   `json:"table"`
	Column   string   `json:"column"`
	Labels   []string `json:"labels"`
}

func (s *Service) handleFeedback(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req FeedbackRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	tn, ok := s.tenant(req.Database)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown database %q", req.Database)
		return
	}
	ctx := r.Context()
	conn, retries, err := tn.checkout(ctx, s.detector, req.Database)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "connect: %v", err)
		return
	}
	tm, err := conn.TableMetadata(ctx, req.Table)
	tn.release(conn, err == nil && retries == 0 && ctx.Err() == nil)
	if err != nil {
		writeError(w, http.StatusNotFound, "table: %v", err)
		return
	}
	info := metafeat.FromTableMeta(tm)
	col := -1
	for i, c := range info.Columns {
		if c.Name == req.Column {
			col = i
			break
		}
	}
	if col < 0 {
		writeError(w, http.StatusNotFound, "unknown column %q", req.Column)
		return
	}
	if err := s.detector.Feedback(info, col, req.Labels); err != nil {
		writeError(w, http.StatusInternalServerError, "feedback: %v", err)
		return
	}
	s.noteServingDrift()
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"applied":   true,
		"feedbacks": len(s.detector.FeedbackLog()),
	})
}

// CacheBlock is the /v1/stats view of the tiered detection cache: both
// tier snapshots plus the request-level singleflight counters. Exported so
// the fleet coordinator can scrape and aggregate it per replica.
type CacheBlock struct {
	Latent cache.Stats       `json:"latent"`
	Result cache.Stats       `json:"result"`
	Flight cache.FlightStats `json:"singleflight"`
}

// StatsResponse is the /v1/stats reply.
type StatsResponse struct {
	Tenants map[string]simdb.AccountingSnapshot `json:"tenants"`
	Cache   CacheBlock                          `json:"cache"`
	// Model describes the serving model: registry version, weight
	// generation, hot-swap count, and (with a registry attached) the
	// registry's dedup economics.
	Model ModelBlock `json:"model"`
	// Detector is the fault-tolerance ledger: retries spent and columns
	// degraded since the service started.
	Detector struct {
		Retries          int `json:"retries"`
		DegradedColumns  int `json:"degraded_columns"`
		DeadlineDegraded int `json:"deadline_degraded"`
		FailureDegraded  int `json:"failure_degraded"`
	} `json:"detector"`
	// Kernels is tensor.Kernels(): which compute kernels this process
	// selected, and why not the fastest if it did not.
	Kernels string `json:"kernels"`
}

// CacheStats snapshots the tiered cache and singleflight counters — the
// /v1/stats cache block, also consumed by the fleet coordinator's
// per-replica aggregation.
func (s *Service) CacheStats() CacheBlock {
	return CacheBlock{
		Latent: s.detector.Cache().Stats(),
		Result: s.detector.Results().Stats(),
		Flight: s.flight.Stats(),
	}
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	resp := StatsResponse{Tenants: map[string]simdb.AccountingSnapshot{}}
	s.mu.RLock()
	for name, t := range s.tenants {
		resp.Tenants[name] = t.server.Accounting().Snapshot()
	}
	s.mu.RUnlock()
	resp.Cache = s.CacheStats()
	resp.Model = s.ModelStats()
	fs := s.detector.FaultStats()
	resp.Detector.Retries = fs.Retries
	resp.Detector.DegradedColumns = fs.DegradedColumns
	resp.Detector.DeadlineDegraded = fs.DeadlineDegraded
	resp.Detector.FailureDegraded = fs.FailureDegraded
	resp.Kernels = tensor.Kernels()
	writeJSON(w, http.StatusOK, resp)
}

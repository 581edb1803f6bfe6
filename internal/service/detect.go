// The transport-agnostic detect core: request/response types plus the
// Detect method that executes one detection request end-to-end — deadline
// threading, execution-mode resolution, the degradation contract, outcome
// metrics. The HTTP handler in service.go and any other front end (the
// fleet harness drives it in-process; tests call it directly) share this
// one code path, so single-node and fleet serving cannot drift apart.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// DetectRequest is the /v1/detect payload. Pipelined runs the request, named
// tables or whole database, with each table on a goroutine of its own and at
// most GOMAXPROCS inference stages at once.
// DeadlineMillis, when positive, bounds the whole request: stages past the
// deadline degrade to Phase-1 answers instead of running.
type DetectRequest struct {
	Database string `json:"database"`
	// Tables names the tables to detect, each at most once; empty means
	// every table of the database.
	Tables         []string `json:"tables,omitempty"`
	Pipelined      bool     `json:"pipelined"`
	DeadlineMillis int64    `json:"deadline_ms,omitempty"`
	// Trace requests the span tree of this detection inline in the
	// response: per-stage timings for every table, relative to request
	// start.
	Trace bool `json:"trace,omitempty"`
	// ModelVersion, when positive, pins this request to a published registry
	// version instead of the serving model — e.g. to compare a candidate
	// against the live model, or to keep a tenant on a validated version
	// across a fleet-wide swap. Requires a registry (tasted -registry);
	// unknown versions are 404.
	ModelVersion int `json:"model_version,omitempty"`
}

// RouteKey is the consistent-hash key a fleet coordinator shards this
// request by: the tenant database, refined to database/table for
// single-table requests. Whole-database (and multi-table) batches stay on
// one replica to reuse its connection; single-table requests — the common
// API-gateway shape — spread across the fleet by table, so a table's repeat
// requests reach the replica whose caches hold its entries (the caches key
// each chunk by its content, not by database.table; DESIGN.md §14).
func (r *DetectRequest) RouteKey() string {
	if len(r.Tables) == 1 {
		return r.Database + "/" + r.Tables[0]
	}
	return r.Database
}

// DetectColumn is one column's outcome in a DetectResponse.
type DetectColumn struct {
	Column  string   `json:"column"`
	Types   []string `json:"types"`
	Phase   int      `json:"phase"`
	Scanned bool     `json:"scanned"`
	// Degraded marks a column whose Phase-2 answer was unavailable (scan
	// failure, deadline); Types then carries the Phase-1 fallback.
	Degraded bool `json:"degraded,omitempty"`
	// DegradeReason explains the degradation.
	DegradeReason string `json:"degrade_reason,omitempty"`
}

// DetectTable is one table's outcome.
type DetectTable struct {
	Table   string         `json:"table"`
	Columns []DetectColumn `json:"columns"`
	// Skipped marks a table the request deadline expired before reaching:
	// no detection was attempted, Columns is empty, SkipReason explains.
	Skipped    bool   `json:"skipped,omitempty"`
	SkipReason string `json:"skip_reason,omitempty"`
}

// DetectResponse is the /v1/detect reply.
type DetectResponse struct {
	Database       string        `json:"database"`
	Tables         []DetectTable `json:"tables"`
	DurationMillis int64         `json:"duration_ms"`
	TotalColumns   int           `json:"total_columns"`
	ScannedColumns int           `json:"scanned_columns"`
	// Degraded reports that at least one column fell back to Phase 1 or
	// that the deadline cut the batch short.
	Degraded bool `json:"degraded"`
	// DegradedColumns counts columns answered by the degradation ladder.
	DegradedColumns int `json:"degraded_columns"`
	// Retries counts transient-error retries spent on this request.
	Retries int      `json:"retries"`
	Errors  []string `json:"errors,omitempty"`
	// ModelVersion is the registry version that served this request: the
	// per-request override when one was given, else the serving version.
	// Omitted when the model has no registry identity.
	ModelVersion int `json:"model_version,omitempty"`
	// Trace is the request's span tree, present when the request set
	// "trace": true.
	Trace *obs.SpanNode `json:"trace,omitempty"`
}

// APIError is a request failure with the HTTP status it maps to. Detect
// returns one instead of writing to a ResponseWriter so non-HTTP front ends
// can translate it themselves.
type APIError struct {
	Status int
	Msg    string
}

func (e *APIError) Error() string { return e.Msg }

func apiErrorf(status int, format string, args ...interface{}) *APIError {
	return &APIError{Status: status, Msg: fmt.Sprintf(format, args...)}
}

// flightResult is the unit singleflight shares between coalesced callers:
// a detect outcome, success or API error alike.
type flightResult struct {
	resp   *DetectResponse
	apiErr *APIError
}

// flightKey identifies identical detect requests for singleflight
// coalescing. The route-key prefix matches the granularity the fleet
// coordinator shards by, so on a replica the colliding traffic is exactly
// the traffic routed to collide there; the canonical JSON body makes any
// parameter difference (tables, deadline, mode, model version) a different
// key. It is the decoded request re-encoded, so fields the service does not
// know, retired request knobs included, never split it.
func flightKey(req DetectRequest) string {
	body, err := json.Marshal(req)
	if err != nil {
		return "" // unkeyable: caller runs without coalescing
	}
	return req.RouteKey() + "\x00" + string(body)
}

// Detect executes one detection request end-to-end and returns the
// (always-200) response, or an APIError for requests that cannot be
// attempted at all (bad parameters, unknown tenant, non-deadline detection
// failures). Deadline expiry is not an error: the response comes back
// degraded per the DESIGN.md §7 ladder. Outcome metrics are recorded here,
// so every transport shares one ledger.
//
// Concurrent identical requests are coalesced: while one execution is in
// flight, callers with the same flightKey wait for its result instead of
// recomputing all four stages. Traced requests bypass coalescing (their
// response embeds a per-request span tree), as do requests whose body
// cannot be canonicalized. A waiting caller whose context dies before the
// leader finishes gets 503; the leader is never cancelled by followers.
func (s *Service) Detect(ctx context.Context, req DetectRequest) (*DetectResponse, *APIError) {
	run := func() flightResult {
		resp, apiErr := s.detect(ctx, req)
		if apiErr != nil {
			detectOutcomes["error"].Inc()
		}
		return flightResult{resp: resp, apiErr: apiErr}
	}
	key := ""
	if !req.Trace {
		key = flightKey(req)
	}
	if key == "" {
		r := run()
		return r.resp, r.apiErr
	}
	r, _, err := s.flight.Do(ctx, key, func() (flightResult, error) { return run(), nil })
	if err != nil {
		// Follower context died while waiting, or the leader panicked:
		// nothing was computed for this caller.
		detectOutcomes["error"].Inc()
		return nil, apiErrorf(http.StatusServiceUnavailable, "coalesced request failed: %v", err)
	}
	return r.resp, r.apiErr
}

func (s *Service) detect(ctx context.Context, req DetectRequest) (*DetectResponse, *APIError) {
	if req.DeadlineMillis < 0 {
		return nil, apiErrorf(http.StatusBadRequest, "deadline_ms must be ≥ 0")
	}
	if req.ModelVersion < 0 {
		return nil, apiErrorf(http.StatusBadRequest, "model_version must be ≥ 0")
	}
	for i, name := range req.Tables {
		if slices.Contains(req.Tables[:i], name) {
			return nil, apiErrorf(http.StatusBadRequest, "table %q named twice", name)
		}
	}
	tn, ok := s.tenant(req.Database)
	if !ok {
		return nil, apiErrorf(http.StatusNotFound, "unknown database %q", req.Database)
	}

	// Pin the request's model here, once: the version label below is derived
	// from the same pointer, so even a hot-swap racing this request cannot
	// produce a response computed on one model but labeled with another's
	// version.
	m := s.detector.Model()
	if req.ModelVersion > 0 {
		var apiErr *APIError
		m, apiErr = s.modelForVersion(ctx, req.ModelVersion)
		if apiErr != nil {
			return nil, apiErr
		}
	}
	ctx = core.WithModel(ctx, m)
	modelVersion := s.versionOf(m)
	var root *obs.Span
	if req.Trace {
		ctx, root = obs.NewTrace(ctx, "detect "+req.Database)
	}
	deadline := time.Duration(req.DeadlineMillis) * time.Millisecond
	if deadline == 0 {
		deadline = s.defaultDeadline
	}
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}

	resp := &DetectResponse{Database: req.Database, ModelVersion: modelVersion}
	start := time.Now()
	// finish stamps the duration and trace and records the request's
	// outcome metrics.
	finish := func() *DetectResponse {
		elapsed := time.Since(start)
		resp.DurationMillis = elapsed.Milliseconds()
		if root != nil {
			root.End()
			node := root.Node()
			resp.Trace = &node
		}
		outcome := "ok"
		if resp.Degraded {
			outcome = "degraded"
		}
		detectOutcomes[outcome].Inc()
		detectRequestSeconds.ObserveDuration(elapsed)
		if resp.TotalColumns > 0 {
			detectScannedRatio.Observe(float64(resp.ScannedColumns) / float64(resp.TotalColumns))
		}
		return resp
	}
	// deadlineBeforeStart answers a request whose deadline fired before core
	// returned a report: a valid, fully degraded response — not a server
	// error — with every named table skipped.
	deadlineBeforeStart := func(err error) *DetectResponse {
		resp.Degraded = true
		resp.Errors = append(resp.Errors, err.Error())
		resp.Tables = appendSkipped(resp.Tables, req.Tables)
		return finish()
	}
	conn, retries, err := tn.checkout(ctx, s.detector, req.Database)
	resp.Retries = retries
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			return deadlineBeforeStart(err), nil
		}
		return nil, apiErrorf(http.StatusInternalServerError, "connect: %v", err)
	}
	// The connection goes back to the pool only from a request that ran to
	// its end with nothing to report; every other exit leaves clean false
	// and the release closes it.
	clean := false
	defer func() { tn.release(conn, clean && ctx.Err() == nil) }()
	rep, err := s.detector.DetectDatabaseOn(ctx, conn, req.Database, req.Tables, core.ExecMode{Pipelined: req.Pipelined})
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			return deadlineBeforeStart(err), nil
		}
		return nil, apiErrorf(http.StatusInternalServerError, "detection failed: %v", err)
	}
	for _, tr := range rep.Tables {
		resp.Tables = append(resp.Tables, toDetectTable(tr))
	}
	resp.Tables = appendSkipped(resp.Tables, rep.Skipped)
	resp.TotalColumns = rep.TotalColumns
	resp.ScannedColumns = rep.ScannedColumns
	resp.DegradedColumns = rep.DegradedColumns
	resp.Retries += rep.Retries
	resp.Degraded = rep.DegradedColumns > 0
	for _, e := range rep.Errors {
		resp.Errors = append(resp.Errors, e.Error())
		if errors.Is(e, context.DeadlineExceeded) {
			resp.Degraded = true
		}
	}
	clean = !resp.Degraded && len(resp.Errors) == 0 && resp.Retries == 0
	return finish(), nil
}

// appendSkipped lists tables the deadline caught before Phase 1: no columns,
// the deadline as the reason.
func appendSkipped(out []DetectTable, tables []string) []DetectTable {
	for _, name := range tables {
		out = append(out, DetectTable{
			Table: name, Columns: []DetectColumn{},
			Skipped: true, SkipReason: context.DeadlineExceeded.Error(),
		})
	}
	return out
}

func toDetectTable(tr *core.TableResult) DetectTable {
	out := DetectTable{Table: tr.Table}
	for _, c := range tr.Columns {
		types := c.Admitted
		if types == nil {
			types = []string{}
		}
		out.Columns = append(out.Columns, DetectColumn{
			Column:        c.Column,
			Types:         types,
			Phase:         c.Phase,
			Scanned:       c.Scanned,
			Degraded:      c.Degraded,
			DegradeReason: c.DegradeReason,
		})
	}
	return out
}

package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/retry"
	"repro/internal/service"
)

// ReplicaHeader names the response header carrying which replica served a
// routed request.
const ReplicaHeader = "X-Taste-Replica"

// The admission and retry policy every coordinator runs: 64 requests in
// flight, 32 more queued for up to 100 ms each, 2 retries per replica with
// a 2 ms base backoff capped at 100 ms and jitter seeded with 1, and the
// replicas' own cap on a request body (service.MaxBodyBytes, 4 MiB). A
// proxied attempt has no timeout of its own; the request's deadline bounds
// it.
const (
	maxInFlight  = 64
	queueDepth   = 32
	queueWait    = 100 * time.Millisecond
	retrySeed    = 1
	maxBodyBytes = service.MaxBodyBytes
)

var retryPolicy = retry.Policy{MaxRetries: 2, BaseDelay: 2 * time.Millisecond, MaxDelay: 100 * time.Millisecond}

// Config holds what a Coordinator needs from its caller.
type Config struct {
	// Client issues every request to a replica; nil uses a default client
	// with no overall timeout (per-request contexts bound each one).
	Client *http.Client
}

// Coordinator routes /v1/detect across a fleet of tasted replicas.
type Coordinator struct {
	ring    *Ring
	pool    *Pool
	client  *http.Client
	retrier *retry.Retrier

	// sem holds one token per routed request in flight, queue one per
	// request waiting for a slot.
	sem   chan struct{}
	queue chan struct{}

	// reg is the coordinator's one routing ledger: /metrics writes it and
	// /v1/stats reads the same counters.
	reg             *obs.Registry
	reqOutcomes     map[string]*obs.Counter
	replicaRoutes   map[string]*obs.Counter // by replica name; fixed at construction
	failoversTotal  *obs.Counter
	retriesTotal    *obs.Counter
	scrapeErrsTotal *obs.Counter
	queueWaitSecs   *obs.Histogram
	requestSecs     *obs.Histogram
	healthyGauge    *obs.Gauge
}

// NewCoordinator builds a coordinator over name→baseURL replicas. Call
// Start to launch health probing and Stop to tear it down.
func NewCoordinator(replicas map[string]string, cfg Config) *Coordinator {
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	reg := obs.NewRegistry()
	c := &Coordinator{
		ring:    NewRing(DefaultVnodes),
		pool:    NewPool(replicas, client),
		client:  client,
		retrier: retry.New(retryPolicy, retrySeed),
		sem:     make(chan struct{}, maxInFlight),
		queue:   make(chan struct{}, queueDepth),
		reg:     reg,
		reqOutcomes: map[string]*obs.Counter{
			"routed":      reg.Counter("taste_fleet_requests_total", "outcome", "routed"),
			"shed":        reg.Counter("taste_fleet_requests_total", "outcome", "shed"),
			"unavailable": reg.Counter("taste_fleet_requests_total", "outcome", "unavailable"),
			"error":       reg.Counter("taste_fleet_requests_total", "outcome", "error"),
		},
		failoversTotal:  reg.Counter("taste_fleet_failovers_total"),
		retriesTotal:    reg.Counter("taste_fleet_retries_total"),
		scrapeErrsTotal: reg.Counter("taste_fleet_scrape_errors_total"),
		queueWaitSecs:   reg.LatencyHistogram("taste_fleet_queue_wait_seconds"),
		requestSecs:     reg.LatencyHistogram("taste_fleet_request_seconds"),
		healthyGauge:    reg.Gauge("taste_fleet_replicas_healthy"),
		replicaRoutes:   make(map[string]*obs.Counter),
	}
	// Ring membership is the full replica set; health is a routing-time
	// filter. Keeping ejected replicas on the ring preserves the
	// minimal-movement property across health blips: a readmitted replica
	// gets exactly its old keys back.
	for _, name := range c.pool.Names() {
		c.ring.Add(name)
		c.replicaRoutes[name] = reg.Counter("taste_fleet_replica_requests_total", "replica", name)
	}
	c.healthyGauge.Set(int64(len(c.pool.Names())))
	c.pool.SetTransitionHook(func(string, bool) {
		c.healthyGauge.Set(int64(len(c.pool.Healthy())))
	})
	return c
}

// Start launches background health probing.
func (c *Coordinator) Start() { c.pool.Start() }

// Stop halts health probing; it returns at once if Start was never called.
func (c *Coordinator) Stop() { c.pool.Stop() }

// Ring exposes the hash ring (for stats and tests).
func (c *Coordinator) Ring() *Ring { return c.ring }

// Handler returns the coordinator's HTTP surface:
//
//	GET  /healthz     coordinator liveness (+ healthy-replica count)
//	POST /v1/detect   routed detection (proxied verbatim to the owner)
//	GET  /v1/types    passthrough to the first healthy replica
//	GET  /v1/stats    routing/failover/shed ledger + per-replica health
//	GET  /metrics     fleet-wide aggregation of replica scrapes + own series
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", c.handleHealth)
	mux.HandleFunc("/v1/detect", c.handleDetect)
	mux.HandleFunc("/v1/types", c.handleTypes)
	mux.HandleFunc("/v1/stats", c.handleStats)
	mux.HandleFunc("/metrics", c.handleMetrics)
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

func (c *Coordinator) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"status":           "ok",
		"replicas_healthy": len(c.pool.Healthy()),
		"replicas_total":   len(c.pool.Names()),
	})
}

// acquire implements admission control: a free in-flight slot is taken
// immediately; otherwise the request takes a queue slot and waits up to
// queueWait for an in-flight one. Returns false when the request must be
// shed: the queue is full, the wait ran out or the caller went away.
func (c *Coordinator) acquire(ctx context.Context) bool {
	select {
	case c.sem <- struct{}{}:
		return true
	default:
	}
	select {
	case c.queue <- struct{}{}:
	default:
		return false
	}
	defer func() { <-c.queue }()
	start := time.Now()
	t := time.NewTimer(queueWait)
	defer t.Stop()
	select {
	case c.sem <- struct{}{}:
		c.queueWaitSecs.ObserveDuration(time.Since(start))
		return true
	case <-t.C:
		return false
	case <-ctx.Done():
		return false
	}
}

func (c *Coordinator) release() { <-c.sem }

// statusError marks a replica attempt that reached the replica but came
// back with a retryable gateway-class status.
type statusError struct{ status int }

func (e *statusError) Error() string { return fmt.Sprintf("replica status %d", e.status) }

// transientAttempt classifies proxied-attempt errors for the retrier: every
// error is transient — a 5xx status or a transport failure from
// http.Client.Do (the replica is unreachable, a mid-flight drop) — because
// the request is idempotent (detection is a read), so re-sending is safe.
// Context errors are handled by Do itself.
func transientAttempt(err error) bool { return err != nil }

// captured is one proxied response read fully into memory.
type captured struct {
	status int
	body   []byte
}

func (c *Coordinator) attempt(ctx context.Context, baseURL string, body []byte) (*captured, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/v1/detect", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 500 {
		return nil, &statusError{resp.StatusCode}
	}
	return &captured{status: resp.StatusCode, body: data}, nil
}

// handleDetect routes one detection: parse enough of the body to compute
// the route key, run the owner chain with per-replica retries and
// cross-replica failover, and pass the winning replica's response through
// byte-for-byte (routing must not perturb results — the golden parity test
// pins this).
func (c *Coordinator) handleDetect(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		c.reqOutcomes["error"].Inc()
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	if len(body) > maxBodyBytes {
		c.reqOutcomes["error"].Inc()
		writeError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", maxBodyBytes)
		return
	}
	var req service.DetectRequest
	if err := json.Unmarshal(body, &req); err != nil {
		c.reqOutcomes["error"].Inc()
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}

	if !c.acquire(r.Context()) {
		c.reqOutcomes["shed"].Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "fleet at capacity (in-flight %d, queue %d)", maxInFlight, queueDepth)
		return
	}
	defer c.release()

	start := time.Now()
	key := req.RouteKey()
	// The owner chain covers every ring member in deterministic ring order;
	// unhealthy members are skipped (not removed — see NewCoordinator).
	chain := c.ring.OwnerN(key, c.ring.Len())
	ctx := r.Context()
	var lastErr error
	attempted := 0
	for _, name := range chain {
		if ctx.Err() != nil {
			break
		}
		if !c.pool.IsHealthy(name) {
			continue
		}
		if attempted > 0 {
			c.failoversTotal.Inc()
		}
		attempted++
		var out *captured
		_, err := c.retrier.Do(ctx, transientAttempt, c.retriesTotal.Inc, func() error {
			var aerr error
			out, aerr = c.attempt(ctx, c.pool.URL(name), body)
			return aerr
		})
		if err != nil {
			lastErr = fmt.Errorf("replica %s: %w", name, err)
			c.pool.ReportRequest(name, false)
			continue
		}
		c.pool.ReportRequest(name, true)
		c.reqOutcomes["routed"].Inc()
		c.replicaRoutes[name].Inc()
		c.requestSecs.ObserveDuration(time.Since(start))
		// Pass the replica's answer through verbatim: status (200-degraded
		// included) and body bytes untouched.
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set(ReplicaHeader, name)
		w.WriteHeader(out.status)
		_, _ = w.Write(out.body)
		return
	}

	c.reqOutcomes["unavailable"].Inc()
	reason := "no healthy replica"
	if lastErr != nil {
		reason = lastErr.Error()
	} else if err := ctx.Err(); err != nil {
		reason = err.Error()
	}
	writeJSON(w, http.StatusServiceUnavailable, map[string]interface{}{
		"error":  "fleet unavailable",
		"reason": reason,
		"key":    key,
	})
}

// handleTypes proxies the (replica-invariant) type domain from the first
// healthy replica.
func (c *Coordinator) handleTypes(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	for _, name := range c.pool.Healthy() {
		data, err := c.pool.get(r.Context(), name, "/v1/types")
		// A replica that cannot serve its API counts against its health
		// here as on /v1/detect, whether it failed to answer or said 500.
		c.pool.ReportRequest(name, err == nil)
		if err != nil {
			continue
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set(ReplicaHeader, name)
		_, _ = w.Write(data)
		return
	}
	writeError(w, http.StatusServiceUnavailable, "no healthy replica")
}

// CacheTotals is the fleet-wide rollup of the replicas' tiered-cache
// counters: hits/misses summed across every replica that answered its
// stats scrape, with the derived hit rates the capacity dashboards watch.
type CacheTotals struct {
	LatentHits    int64   `json:"latent_hits"`
	LatentMisses  int64   `json:"latent_misses"`
	LatentHitRate float64 `json:"latent_hit_rate"`
	ResultHits    int64   `json:"result_hits"`
	ResultMisses  int64   `json:"result_misses"`
	ResultHitRate float64 `json:"result_hit_rate"`
	Coalesced     int64   `json:"coalesced"`
	Bytes         int64   `json:"bytes"`
}

// StatsResponse is the coordinator's /v1/stats reply.
type StatsResponse struct {
	Replicas []ReplicaState `json:"replicas"`
	Routing  struct {
		Routed      int64            `json:"routed"`
		Shed        int64            `json:"shed"`
		Unavailable int64            `json:"unavailable"`
		Errors      int64            `json:"errors"`
		Failovers   int64            `json:"failovers"`
		Retries     int64            `json:"retries"`
		PerReplica  map[string]int64 `json:"per_replica"`
	} `json:"routing"`
	Ring struct {
		Nodes  []string `json:"nodes"`
		Vnodes int      `json:"vnodes"`
	} `json:"ring"`
	// Caches holds each healthy replica's tiered-cache block, scraped from
	// its /v1/stats in parallel with a short timeout; a replica that fails
	// to answer is simply absent (and bumps the scrape-error counter).
	Caches map[string]service.CacheBlock `json:"caches,omitempty"`
	// CacheTotals rolls Caches up into fleet-wide hit rates.
	CacheTotals *CacheTotals `json:"cache_totals,omitempty"`
	// Models holds each healthy replica's serving-model block from the same
	// scrape: which registry version (and weight generation) every replica
	// serves, making rollout progress — and version skew — visible in one
	// place during a fleet-wide hot-swap.
	Models map[string]service.ModelBlock `json:"models,omitempty"`
}

// scraped is one healthy replica's answer to a scrape.
type scraped struct {
	name string
	body []byte
}

// scrape GETs path from every healthy replica concurrently and returns the
// answers in name order. A replica that fails to answer is absent and bumps
// taste_fleet_scrape_errors_total.
func (c *Coordinator) scrape(ctx context.Context, path string) []scraped {
	healthy := c.pool.Healthy()
	results := make([]scraped, len(healthy))
	var wg sync.WaitGroup
	for i, name := range healthy {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			body, err := c.pool.get(ctx, name, path)
			if err != nil {
				c.scrapeErrsTotal.Inc()
				return
			}
			results[i] = scraped{name, body}
		}(i, name)
	}
	wg.Wait()
	out := results[:0]
	for _, r := range results {
		if r.name != "" {
			out = append(out, r)
		}
	}
	return out
}

// scrapeCaches collects the cache and serving-model blocks from every
// healthy replica's /v1/stats. The coordinator holds no cache or model
// state of its own: both live in the replicas, so the fleet-wide view is a
// scrape-time rollup.
func (c *Coordinator) scrapeCaches(ctx context.Context) (map[string]service.CacheBlock, map[string]service.ModelBlock) {
	caches := make(map[string]service.CacheBlock)
	models := make(map[string]service.ModelBlock)
	for _, s := range c.scrape(ctx, "/v1/stats") {
		var body struct {
			Cache service.CacheBlock `json:"cache"`
			Model service.ModelBlock `json:"model"`
		}
		if json.Unmarshal(s.body, &body) != nil {
			c.scrapeErrsTotal.Inc()
			continue
		}
		caches[s.name] = body.Cache
		// The scrape is per replica, but the registry economics inside the
		// block are store-wide; keep only the per-replica fields.
		body.Model.Registry = nil
		models[s.name] = body.Model
	}
	return caches, models
}

func rollupCaches(caches map[string]service.CacheBlock) *CacheTotals {
	if len(caches) == 0 {
		return nil
	}
	t := &CacheTotals{}
	for _, b := range caches {
		t.LatentHits += b.Latent.Hits
		t.LatentMisses += b.Latent.Misses
		t.ResultHits += b.Result.Hits
		t.ResultMisses += b.Result.Misses
		t.Coalesced += b.Flight.Coalesced
		t.Bytes += b.Latent.Bytes + b.Result.Bytes
	}
	if n := t.LatentHits + t.LatentMisses; n > 0 {
		t.LatentHitRate = float64(t.LatentHits) / float64(n)
	}
	if n := t.ResultHits + t.ResultMisses; n > 0 {
		t.ResultHitRate = float64(t.ResultHits) / float64(n)
	}
	return t
}

func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	resp := StatsResponse{Replicas: c.pool.Snapshot()}
	resp.Caches, resp.Models = c.scrapeCaches(r.Context())
	resp.CacheTotals = rollupCaches(resp.Caches)
	resp.Routing.Routed = c.reqOutcomes["routed"].Value()
	resp.Routing.Shed = c.reqOutcomes["shed"].Value()
	resp.Routing.Unavailable = c.reqOutcomes["unavailable"].Value()
	resp.Routing.Errors = c.reqOutcomes["error"].Value()
	resp.Routing.Failovers = c.failoversTotal.Value()
	resp.Routing.Retries = c.retriesTotal.Value()
	resp.Routing.PerReplica = make(map[string]int64, len(c.replicaRoutes))
	for name, n := range c.replicaRoutes {
		resp.Routing.PerReplica[name] = n.Value()
	}
	resp.Ring.Nodes = c.ring.Nodes()
	resp.Ring.Vnodes = c.ring.vnodes
	writeJSON(w, http.StatusOK, resp)
}

// handleMetrics serves the fleet-wide exposition: every healthy replica's
// /metrics scrape summed by obs.MergeText (counters and histogram buckets
// become fleet totals), followed by the coordinator's own taste_fleet_*
// series. A replica that fails to answer its scrape contributes nothing and
// bumps taste_fleet_scrape_errors_total.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var texts []string
	for _, s := range c.scrape(r.Context(), "/metrics") {
		texts = append(texts, string(s.body))
	}
	merged, err := obs.MergeText(texts...)
	if err != nil {
		// A malformed replica scrape must not take down the fleet's own
		// series; serve those and report the aggregation failure.
		c.scrapeErrsTotal.Inc()
		merged = fmt.Sprintf("# aggregation error: %v\n", err)
	}
	c.healthyGauge.Set(int64(len(c.pool.Healthy())))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = io.WriteString(w, merged)
	_ = c.reg.WritePrometheus(w)
}

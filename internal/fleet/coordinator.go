package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/retry"
	"repro/internal/service"
)

// ReplicaHeader names the response header carrying which replica served a
// routed request.
const ReplicaHeader = "X-Taste-Replica"

// Config tunes a Coordinator.
type Config struct {
	// Vnodes is the ring's virtual-node count per replica (0 =
	// DefaultVnodes).
	Vnodes int
	// MaxInFlight bounds concurrently routed requests (admission control);
	// 0 = 64.
	MaxInFlight int
	// QueueDepth bounds how many requests may wait for an in-flight slot;
	// the QueueDepth+1-th waiter is shed with 429 immediately. 0 disables
	// queueing (full ⇒ immediate 429); negative = unbounded queue.
	QueueDepth int
	// QueueWait bounds how long one request waits for a slot before being
	// shed; 0 = 100 ms.
	QueueWait time.Duration
	// Retry is the per-replica transient-retry policy — the same machinery
	// the detector uses against tenant databases (internal/retry), seeded
	// by RetrySeed. Zero value = 2 retries, 2 ms base, 100 ms cap.
	Retry     retry.Policy
	RetrySeed int64
	// AttemptTimeout bounds a single proxied attempt; 0 = none (the
	// request's own deadline still applies).
	AttemptTimeout time.Duration
	// MaxBodyBytes bounds an accepted request body; 0 = 4 MiB.
	MaxBodyBytes int64
	// Pool tunes health probing/hysteresis.
	Pool PoolConfig
	// Client issues proxied requests; nil uses http.DefaultTransport with
	// no overall timeout (per-request contexts bound attempts).
	Client *http.Client
}

// routingStats is the coordinator's accounting ledger (the /v1/stats view;
// the obs registry mirrors it for /metrics).
type routingStats struct {
	Routed      atomic.Int64
	Shed        atomic.Int64
	Unavailable atomic.Int64
	Errors      atomic.Int64
	Failovers   atomic.Int64
	Retries     atomic.Int64
}

// Coordinator routes /v1/detect across a fleet of tasted replicas.
type Coordinator struct {
	cfg     Config
	ring    *Ring
	pool    *Pool
	client  *http.Client
	retrier *retry.Retrier

	sem     chan struct{}
	waiters atomic.Int64

	stats routingStats

	reg             *obs.Registry
	reqOutcomes     map[string]*obs.Counter
	failoversTotal  *obs.Counter
	retriesTotal    *obs.Counter
	scrapeErrsTotal *obs.Counter
	queueWaitSecs   *obs.Histogram
	requestSecs     *obs.Histogram
	healthyGauge    *obs.Gauge

	perReplicaMu sync.Mutex
	perReplica   map[string]int64
}

// NewCoordinator builds a coordinator over name→baseURL replicas. Call
// Start to launch health probing and Stop to tear it down.
func NewCoordinator(replicas map[string]string, cfg Config) *Coordinator {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 64
	}
	if cfg.QueueWait <= 0 {
		cfg.QueueWait = 100 * time.Millisecond
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 4 << 20
	}
	if cfg.Retry == (retry.Policy{}) {
		cfg.Retry = retry.Policy{MaxRetries: 2, BaseDelay: 2 * time.Millisecond, MaxDelay: 100 * time.Millisecond}
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	reg := obs.NewRegistry()
	c := &Coordinator{
		cfg:     cfg,
		ring:    NewRing(cfg.Vnodes),
		pool:    NewPool(replicas, cfg.Pool),
		client:  client,
		retrier: retry.New(cfg.Retry, cfg.RetrySeed+1),
		sem:     make(chan struct{}, cfg.MaxInFlight),
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
		perReplica:      make(map[string]int64),
	}
	// Ring membership is the full replica set; health is a routing-time
	// filter. Keeping ejected replicas on the ring preserves the
	// minimal-movement property across health blips: a readmitted replica
	// gets exactly its old keys back.
	for _, name := range c.pool.Names() {
		c.ring.Add(name)
	}
	c.healthyGauge.Set(int64(len(c.pool.Names())))
	c.pool.SetTransitionHook(func(string, bool) {
		c.healthyGauge.Set(int64(len(c.pool.Healthy())))
	})
	return c
}

// Start launches background health probing.
func (c *Coordinator) Start() { c.pool.Start() }

// Stop halts health probing.
func (c *Coordinator) Stop() { c.pool.Stop() }

// Pool exposes the replica pool (for stats and tests).
func (c *Coordinator) Pool() *Pool { return c.pool }

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
// immediately; otherwise the request queues (bounded by QueueDepth) for up
// to QueueWait. Returns false when the request must be shed.
func (c *Coordinator) acquire(ctx context.Context) bool {
	select {
	case c.sem <- struct{}{}:
		return true
	default:
	}
	if c.cfg.QueueDepth == 0 {
		return false
	}
	if c.cfg.QueueDepth > 0 && c.waiters.Add(1) > int64(c.cfg.QueueDepth) {
		c.waiters.Add(-1)
		return false
	} else if c.cfg.QueueDepth < 0 {
		c.waiters.Add(1)
	}
	defer c.waiters.Add(-1)
	start := time.Now()
	t := time.NewTimer(c.cfg.QueueWait)
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

// transientAttempt classifies proxied-attempt errors for the retrier:
// network errors (the replica is unreachable, mid-flight drop) and 5xx
// statuses are transient — the request is idempotent (detection is a read),
// so re-sending is safe.
func transientAttempt(err error) bool {
	if err == nil {
		return false
	}
	if _, ok := err.(*statusError); ok {
		return true
	}
	// Everything else reaching the retrier from http.Client.Do is a
	// transport-level failure; context errors are handled by Do itself.
	return true
}

// captured is one proxied response read fully into memory.
type captured struct {
	status int
	body   []byte
}

func (c *Coordinator) attempt(ctx context.Context, baseURL string, body []byte) (*captured, error) {
	if c.cfg.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.cfg.AttemptTimeout)
		defer cancel()
	}
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
	body, err := io.ReadAll(io.LimitReader(r.Body, c.cfg.MaxBodyBytes+1))
	if err != nil {
		c.reqOutcomes["error"].Inc()
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	if int64(len(body)) > c.cfg.MaxBodyBytes {
		c.reqOutcomes["error"].Inc()
		writeError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", c.cfg.MaxBodyBytes)
		return
	}
	var req service.DetectRequest
	if err := json.Unmarshal(body, &req); err != nil {
		c.reqOutcomes["error"].Inc()
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}

	if !c.acquire(r.Context()) {
		c.stats.Shed.Add(1)
		c.reqOutcomes["shed"].Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "fleet at capacity (in-flight %d, queue %d)", c.cfg.MaxInFlight, c.cfg.QueueDepth)
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
			c.stats.Failovers.Add(1)
			c.failoversTotal.Inc()
		}
		attempted++
		var out *captured
		retries, err := c.retrier.Do(ctx, transientAttempt, func() {
			c.stats.Retries.Add(1)
			c.retriesTotal.Inc()
		}, func() error {
			var aerr error
			out, aerr = c.attempt(ctx, c.pool.URL(name), body)
			return aerr
		})
		_ = retries
		if err != nil {
			lastErr = fmt.Errorf("replica %s: %w", name, err)
			c.pool.ReportRequest(name, false)
			continue
		}
		c.pool.ReportRequest(name, true)
		c.stats.Routed.Add(1)
		c.reqOutcomes["routed"].Inc()
		c.reg.Counter("taste_fleet_replica_requests_total", "replica", name).Inc()
		c.perReplicaMu.Lock()
		c.perReplica[name]++
		c.perReplicaMu.Unlock()
		c.requestSecs.ObserveDuration(time.Since(start))
		// Pass the replica's answer through verbatim: status (200-degraded
		// included) and body bytes untouched.
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set(ReplicaHeader, name)
		w.WriteHeader(out.status)
		_, _ = w.Write(out.body)
		return
	}

	c.stats.Unavailable.Add(1)
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
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, c.pool.URL(name)+"/v1/types", nil)
		if err != nil {
			continue
		}
		resp, err := c.client.Do(req)
		if err != nil {
			c.pool.ReportRequest(name, false)
			continue
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
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

// scrapeCaches collects the cache and serving-model blocks from every
// healthy replica's /v1/stats concurrently. The coordinator holds no cache
// or model state of its own: both live in the replicas, so the fleet-wide
// view is a scrape-time rollup.
func (c *Coordinator) scrapeCaches(ctx context.Context) (map[string]service.CacheBlock, map[string]service.ModelBlock) {
	healthy := c.pool.Healthy()
	type scraped struct {
		name  string
		block service.CacheBlock
		model service.ModelBlock
		ok    bool
	}
	results := make([]scraped, len(healthy))
	var wg sync.WaitGroup
	for i, name := range healthy {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			sctx, cancel := context.WithTimeout(ctx, 2*time.Second)
			defer cancel()
			req, err := http.NewRequestWithContext(sctx, http.MethodGet, c.pool.URL(name)+"/v1/stats", nil)
			if err != nil {
				c.scrapeErrsTotal.Inc()
				return
			}
			resp, err := c.client.Do(req)
			if err != nil {
				c.scrapeErrsTotal.Inc()
				return
			}
			defer resp.Body.Close()
			var body struct {
				Cache service.CacheBlock `json:"cache"`
				Model service.ModelBlock `json:"model"`
			}
			if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&body) != nil {
				c.scrapeErrsTotal.Inc()
				return
			}
			results[i] = scraped{name: name, block: body.Cache, model: body.Model, ok: true}
		}(i, name)
	}
	wg.Wait()
	caches := make(map[string]service.CacheBlock)
	models := make(map[string]service.ModelBlock)
	for _, r := range results {
		if r.ok {
			caches[r.name] = r.block
			// The scrape is per replica, but the registry economics inside
			// the block are store-wide; keep only the per-replica fields.
			r.model.Registry = nil
			models[r.name] = r.model
		}
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
	resp.Routing.Routed = c.stats.Routed.Load()
	resp.Routing.Shed = c.stats.Shed.Load()
	resp.Routing.Unavailable = c.stats.Unavailable.Load()
	resp.Routing.Errors = c.stats.Errors.Load()
	resp.Routing.Failovers = c.stats.Failovers.Load()
	resp.Routing.Retries = c.stats.Retries.Load()
	resp.Routing.PerReplica = make(map[string]int64)
	c.perReplicaMu.Lock()
	for k, v := range c.perReplica {
		resp.Routing.PerReplica[k] = v
	}
	c.perReplicaMu.Unlock()
	resp.Ring.Nodes = c.ring.Nodes()
	vn := c.ring.vnodes
	resp.Ring.Vnodes = vn
	writeJSON(w, http.StatusOK, resp)
}

// handleMetrics serves the fleet-wide exposition: every healthy replica's
// /metrics scrape summed by obs.MergeText (counters and histogram buckets
// become fleet totals), followed by the coordinator's own taste_fleet_*
// series. A replica that fails to answer its scrape contributes nothing and
// bumps taste_fleet_scrape_errors_total.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	healthy := c.pool.Healthy()
	texts := make([]string, len(healthy))
	var wg sync.WaitGroup
	for i, name := range healthy {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(r.Context(), 2*time.Second)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.pool.URL(name)+"/metrics", nil)
			if err != nil {
				c.scrapeErrsTotal.Inc()
				return
			}
			resp, err := c.client.Do(req)
			if err != nil {
				c.scrapeErrsTotal.Inc()
				return
			}
			defer resp.Body.Close()
			data, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != http.StatusOK {
				c.scrapeErrsTotal.Inc()
				return
			}
			texts[i] = string(data)
		}(i, name)
	}
	wg.Wait()
	nonEmpty := texts[:0]
	for _, t := range texts {
		if t != "" {
			nonEmpty = append(nonEmpty, t)
		}
	}
	merged, err := obs.MergeText(nonEmpty...)
	if err != nil {
		// A malformed replica scrape must not take down the fleet's own
		// series; serve those and report the aggregation failure.
		c.scrapeErrsTotal.Inc()
		merged = fmt.Sprintf("# aggregation error: %v\n", err)
	}
	c.healthyGauge.Set(int64(len(healthy)))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = io.WriteString(w, merged)
	_ = c.reg.WritePrometheus(w)
}

package service

import (
	"net/http"

	"repro/internal/obs"
)

// Service-level metric handles (DESIGN.md §9): per-request outcomes, the
// scanned-column intrusiveness ratio, and model swaps.
var (
	detectRequestSeconds = obs.Default.LatencyHistogram("taste_detect_request_seconds")
	detectScannedRatio   = obs.Default.Histogram("taste_detect_scanned_ratio", obs.RatioBuckets())
	detectOutcomes       = map[string]*obs.Counter{
		"ok":       obs.Default.Counter("taste_detect_requests_total", "outcome", "ok"),
		"degraded": obs.Default.Counter("taste_detect_requests_total", "outcome", "degraded"),
		"error":    obs.Default.Counter("taste_detect_requests_total", "outcome", "error"),
	}

	// Connection pool (connpool.go): a miss is a handshake paid, a discard a
	// released connection closed instead of pooled.
	connpoolHits     = obs.Default.Counter("taste_connpool_checkouts_total", "outcome", "hit")
	connpoolMisses   = obs.Default.Counter("taste_connpool_checkouts_total", "outcome", "miss")
	connpoolDiscards = obs.Default.Counter("taste_connpool_discards_total")
	connpoolIdle     = obs.Default.Gauge("taste_connpool_idle")

	modelSwapsTotal      = obs.Default.Counter("taste_model_swaps_total")
	modelSwapErrorsTotal = obs.Default.Counter("taste_model_swap_errors_total")
	servingVersionGauge  = obs.Default.Gauge("taste_model_serving_version")
)

// syncGauges mirrors externally-owned ledgers (cache occupancy, the
// detector's fault stats, the serving model's version) into gauges right before a scrape, so /metrics
// carries them without hooking every cache operation. Hit/miss/eviction
// flows are counters owned by the cache tiers themselves
// (taste_cache_*_total, tier=latent|result); only point-in-time state is
// mirrored here.
func (s *Service) syncGauges() {
	g := obs.Default.Gauge
	for tier, st := range map[string]struct {
		entries int
		bytes   int64
	}{
		"latent": {s.detector.Cache().Len(), s.detector.Cache().Bytes()},
		"result": {s.detector.Results().Len(), s.detector.Results().Bytes()},
	} {
		g("taste_cache_entries", "tier", tier).Set(int64(st.entries))
		g("taste_cache_bytes", "tier", tier).Set(st.bytes)
	}
	g("taste_cache_skipped_copies").Set(s.detector.Cache().Stats().SkippedCopies)
	fs := s.detector.FaultStats()
	g("taste_detector_degraded_columns").Set(int64(fs.DegradedColumns))
	servingVersionGauge.Set(int64(s.ServingVersion()))
}

// MetricsHandler serves the process-wide metric registry in Prometheus text
// format, refreshing the mirrored gauges on every scrape. Mounted at
// /metrics on the service mux and on `tasted -debug-addr`.
func (s *Service) MetricsHandler() http.Handler {
	return obs.Handler(obs.Default, s.syncGauges)
}

// DebugHandler serves /metrics plus the net/http/pprof endpoints — the mux
// behind `tasted -debug-addr`, kept off the tenant-facing listener.
func (s *Service) DebugHandler() http.Handler {
	return obs.DebugMux(obs.Default, s.syncGauges)
}

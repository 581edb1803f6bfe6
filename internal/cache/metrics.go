package cache

import "repro/internal/obs"

// Metric names exported by the cache subsystem. Counters carry a `tier`
// label ("latent" or "result"); the coalesced counter is tier-less because
// singleflight sits above both tiers at the request boundary. A hit is
// counted, not timed: the two clock reads around it cost about as much as
// the lookup itself.
const (
	MetricHits      = "taste_cache_hits_total"
	MetricMisses    = "taste_cache_misses_total"
	MetricEvictions = "taste_cache_evictions_total"
	MetricCoalesced = "taste_cache_coalesced_total"
)

// TierMetrics bundles the obs handles one cache tier bumps on its hot path.
// Handles are resolved once at construction so recording is a single atomic
// add, never a registry lookup.
type TierMetrics struct {
	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
}

// NewTierMetrics registers (or re-resolves) the cache series for one tier
// on r.
func NewTierMetrics(r *obs.Registry, tier string) *TierMetrics {
	return &TierMetrics{
		hits:      r.Counter(MetricHits, "tier", tier),
		misses:    r.Counter(MetricMisses, "tier", tier),
		evictions: r.Counter(MetricEvictions, "tier", tier),
	}
}

func (m *TierMetrics) hit()   { m.hits.Inc() }
func (m *TierMetrics) miss()  { m.misses.Inc() }
func (m *TierMetrics) evict() { m.evictions.Inc() }

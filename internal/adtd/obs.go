package adtd

import (
	"time"

	"repro/internal/obs"
)

// Forward-pass metric handles (DESIGN.md §9): one histogram+counter pair per
// tower, labeled by kind, plus a chunk counter for the batched content path
// so operators can compute chunks-per-forward without the batcher's stats.
var (
	metaForwardSeconds    = obs.Default.LatencyHistogram("taste_adtd_forward_seconds", "kind", "meta")
	contentForwardSeconds = obs.Default.LatencyHistogram("taste_adtd_forward_seconds", "kind", "content")
	metaForwardsTotal     = obs.Default.Counter("taste_adtd_forwards_total", "kind", "meta")
	contentForwardsTotal  = obs.Default.Counter("taste_adtd_forwards_total", "kind", "content")
	contentChunksTotal    = obs.Default.Counter("taste_adtd_content_chunks_total")
)

func observeMetaForward(start time.Time) {
	metaForwardSeconds.ObserveDuration(time.Since(start))
	metaForwardsTotal.Inc()
}

func observeContentForward(start time.Time, chunks int) {
	contentForwardSeconds.ObserveDuration(time.Since(start))
	contentForwardsTotal.Inc()
	contentChunksTotal.Add(int64(chunks))
}

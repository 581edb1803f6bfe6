package core

import (
	"context"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeline"
)

// Stage metric handles (DESIGN.md §9). Each of the four Taste stages gets a
// duration histogram sharing the common latency bucket layout, so the
// per-phase split of the paper's Table 7 can be read straight off /metrics.
var (
	stageSeconds = [4]*obs.Histogram{
		obs.Default.LatencyHistogram("taste_stage_seconds", "stage", "s1"),
		obs.Default.LatencyHistogram("taste_stage_seconds", "stage", "s2"),
		obs.Default.LatencyHistogram("taste_stage_seconds", "stage", "s3"),
		obs.Default.LatencyHistogram("taste_stage_seconds", "stage", "s4"),
	}
	stageErrorsTotal = [4]*obs.Counter{
		obs.Default.Counter("taste_stage_errors_total", "stage", "s1"),
		obs.Default.Counter("taste_stage_errors_total", "stage", "s2"),
		obs.Default.Counter("taste_stage_errors_total", "stage", "s3"),
		obs.Default.Counter("taste_stage_errors_total", "stage", "s4"),
	}
	detectorRetriesTotal  = obs.Default.Counter("taste_detector_retries_total")
	degradedDeadlineTotal = obs.Default.Counter("taste_detector_degraded_columns_total", "cause", "deadline")
	degradedFailureTotal  = obs.Default.Counter("taste_detector_degraded_columns_total", "cause", "failure")
	tablesDetectedTotal   = obs.Default.Counter("taste_detector_tables_total")
	forwardPanicsTotal    = obs.Default.Counter("taste_detector_forward_panics_total")
)

// prefetchCount records scan-prefetcher outcomes: hit (consumed), waste
// (issued but never consumed), skipped (declined by the byte brake).
func prefetchCount(kind, outcome string, n int) {
	if n > 0 {
		obs.Default.Counter("taste_pipeline_prefetch_total", "kind", kind, "outcome", outcome).Add(int64(n))
	}
}

// stageLabels name the four stages in spans: "s<N>:<table>", so a trace
// consumer can aggregate by the prefix before ':'.
var stageLabels = [4]string{"s1", "s2", "s3", "s4"}

// instrumentStage wraps a stage Run with a trace span (child of the request
// trace, when one is active) and the stage's duration histogram; busy, when
// set, receives the same duration.
func instrumentStage(idx int, table string, st pipeline.Stage, busy func(stage int, d time.Duration)) pipeline.Stage {
	run := st.Run
	st.Run = func(ctx context.Context) error {
		ctx, sp := obs.StartSpan(ctx, stageLabels[idx]+":"+table)
		start := time.Now()
		err := run(ctx)
		elapsed := time.Since(start)
		stageSeconds[idx].ObserveDuration(elapsed)
		if busy != nil {
			busy(idx, elapsed)
		}
		if err != nil {
			stageErrorsTotal[idx].Inc()
		}
		sp.End()
		return err
	}
	return st
}

package core

import "repro/internal/obs"

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
)

// analyzeReads and scanReads count the reads pipelined detects ran as
// stages: an ANALYZE ("meta") and a content scan ("scan"). The series keeps
// the name and "hit" outcome of the retired scan prefetcher (DESIGN.md §16),
// so core.prefetch_hit_ratio reads 1 wherever pipelined detects read.
var (
	analyzeReads = obs.Default.Counter("taste_pipeline_prefetch_total", "kind", "meta", "outcome", "hit")
	scanReads    = obs.Default.Counter("taste_pipeline_prefetch_total", "kind", "scan", "outcome", "hit")
)

// stageLabels name the four stages in spans: "s<N>:<table>", so a trace
// consumer can aggregate by the prefix before ':'.
var stageLabels = [4]string{"s1", "s2", "s3", "s4"}

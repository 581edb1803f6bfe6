package simdb

import (
	"time"

	"repro/internal/obs"
)

// Runtime metric handles (DESIGN.md §9). Latency is observed per operation
// whether it succeeds or fails — a failed scan still held the caller for its
// round trip, and operators alert on the tail, not the happy path.
var (
	opSeconds = map[string]*obs.Histogram{
		"connect":        obs.Default.LatencyHistogram("taste_simdb_op_seconds", "op", "connect"),
		"list_tables":    obs.Default.LatencyHistogram("taste_simdb_op_seconds", "op", "list_tables"),
		"table_metadata": obs.Default.LatencyHistogram("taste_simdb_op_seconds", "op", "table_metadata"),
		"analyze":        obs.Default.LatencyHistogram("taste_simdb_op_seconds", "op", "analyze"),
		"scan":           obs.Default.LatencyHistogram("taste_simdb_op_seconds", "op", "scan"),
	}
	opErrorsTotal = obs.Default.Counter("taste_simdb_op_errors_total")
	faultsTotal   = obs.Default.Counter("taste_simdb_faults_total")
	retriesTotal  = obs.Default.Counter("taste_simdb_retries_total")
)

// observeOp records one database operation's wall time and error outcome.
func observeOp(op string, start time.Time, err error) {
	opSeconds[op].ObserveDuration(time.Since(start))
	if err != nil {
		opErrorsTotal.Inc()
	}
}

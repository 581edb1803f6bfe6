package main

import (
	"runtime"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/simdb"
)

// The program already exports what it counts (obs.Default, /v1/stats,
// simdb.Accounting). The traced run reads those series before and after the
// workload passes; it adds none.

var batcherQueueDelay = obs.Default.LatencyHistogram("taste_batcher_queue_delay_seconds")

// series is a snapshot of the obs.Default values the per-layer metrics are
// derived from.
type series map[string]float64

func readSeries() series {
	c := func(name string, labels ...string) float64 {
		return float64(obs.Default.Counter(name, labels...).Value())
	}
	s := series{
		"forwards":        c("taste_adtd_forwards_total", "kind", "content"),
		"chunks":          c("taste_adtd_content_chunks_total"),
		"retries":         c("taste_detector_retries_total"),
		"degraded":        c("taste_detector_degraded_columns_total", "cause", "deadline") + c("taste_detector_degraded_columns_total", "cause", "failure"),
		"steals":          c("taste_pipeline_steals_total", "kind", "prep") + c("taste_pipeline_steals_total", "kind", "infer"),
		"queue_delay_sum": batcherQueueDelay.Sum(),
		"queue_delay_n":   float64(batcherQueueDelay.Count()),
	}
	chunks := obs.Default.Histogram("taste_batcher_batch_chunks", obs.ExpBuckets(1, 2, 8))
	s["batch_chunks_sum"], s["batch_chunks_n"] = chunks.Sum(), float64(chunks.Count())
	for _, kind := range []string{"meta", "scan"} {
		for _, outcome := range []string{"hit", "waste", "skipped"} {
			s["prefetch_"+outcome] += c("taste_pipeline_prefetch_total", "kind", kind, "outcome", outcome)
		}
	}
	for _, op := range []string{"connect", "list_tables", "table_metadata", "scan"} {
		h := obs.Default.LatencyHistogram("taste_simdb_op_seconds", "op", op)
		s["simdb_wait_s"] += h.Sum()
		if op == "scan" {
			s["scans"] = float64(h.Count())
		}
	}
	return s
}

// usage is the process's resource ledger at one instant.
type usage struct {
	cpu       time.Duration
	mallocs   uint64
	gcPause   time.Duration
	peakRSSMB float64 // Linux reports KiB
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return usage{
		cpu: tv(ru.Utime) + tv(ru.Stime), mallocs: ms.Mallocs,
		gcPause: time.Duration(ms.PauseTotalNs), peakRSSMB: float64(ru.Maxrss) / 1024,
	}
}

// counters brackets the traced run's workload passes.
type counters struct {
	series series
	usage  usage
	acct   simdb.AccountingSnapshot
	// prev is each node's cache block as last seen, so a long-lived node
	// contributes only what the passes added and a fresh one everything.
	prev  map[*node]service.CacheBlock
	cache service.CacheBlock
	err   error
}

func startCounters(s *setup) *counters {
	c := &counters{prev: map[*node]service.CacheBlock{}}
	if s.node != nil {
		st, err := s.node.stats()
		c.err = err
		c.prev[s.node] = st.Cache
	}
	c.series, c.usage, c.acct = readSeries(), readUsage(), s.tenant.server.Accounting().Snapshot()
	return c
}

func addStats(dst *cache.Stats, cur, prev cache.Stats) {
	dst.Hits += cur.Hits - prev.Hits
	dst.Misses += cur.Misses - prev.Misses
	dst.Evictions += cur.Evictions - prev.Evictions
}

// inspect is called with the serving node after every pass.
func (c *counters) inspect(n *node) {
	st, err := n.stats()
	if err != nil {
		c.err = err
		return
	}
	prev := c.prev[n]
	addStats(&c.cache.Latent, st.Cache.Latent, prev.Latent)
	addStats(&c.cache.Result, st.Cache.Result, prev.Result)
	c.cache.Flight.Coalesced += st.Cache.Flight.Coalesced - prev.Flight.Coalesced
	c.prev[n] = st.Cache
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// finish turns the differences over the passes into per-layer metrics.
func (c *counters) finish(w workload, s *setup, r *runResult, m map[string]float64) error {
	if c.err != nil {
		return c.err
	}
	after, use, acct := readSeries(), readUsage(), s.tenant.server.Accounting().Snapshot()
	d := func(key string) float64 { return after[key] - c.series[key] }
	tables := 0.0
	var p95, p99 []float64
	for _, p := range r.passes {
		tables += float64(p.tables)
		p95 = append(p95, quantile(p.latencies, 0.95))
		p99 = append(p99, quantile(p.latencies, 0.99))
	}

	m["simdb.wait_ms_per_table"] = ratio(d("simdb_wait_s")*1e3, tables)
	m["simdb.queries"] = float64(acct.Queries - c.acct.Queries)
	m["simdb.scans"] = d("scans")
	m["simdb.cells_scanned"] = float64(acct.CellsRead - c.acct.CellsRead)
	m["simdb.bytes"] = float64(acct.BytesRead - c.acct.BytesRead)

	lat, res := c.cache.Latent, c.cache.Result
	m["cache.latent_hit_ratio"] = ratio(float64(lat.Hits), float64(lat.Hits+lat.Misses))
	m["cache.result_hit_ratio"] = ratio(float64(res.Hits), float64(res.Hits+res.Misses))
	m["cache.evictions"] = float64(lat.Evictions + res.Evictions)

	m["pipeline.steals"] = d("steals")
	m["core.content_forwards"] = d("forwards")
	m["core.batch_occupancy"] = ratio(d("chunks"), d("forwards"))
	m["core.prefetch_hit_ratio"] = ratio(d("prefetch_hit"), d("prefetch_hit")+d("prefetch_waste")+d("prefetch_skipped"))
	m["core.retries"] = d("retries")
	m["core.degraded_columns"] = d("degraded")

	m["service.coalesced"] = float64(c.cache.Flight.Coalesced)
	m["service.batcher_queue_delay_ms"] = ratio(d("queue_delay_sum")*1e3, d("queue_delay_n"))
	m["service.batch_chunks_mean"] = ratio(d("batch_chunks_sum"), d("batch_chunks_n"))
	m["service.latency_ms_p95"] = median(p95)
	m["service.latency_ms_p99"] = median(p99)

	m["process.cpu_ms_per_table"] = ratio(ms(use.cpu-c.usage.cpu), tables)
	m["process.allocs_per_table"] = ratio(float64(use.mallocs-c.usage.mallocs), tables)
	m["process.gc_pause_ms_total"] = ms(use.gcPause - c.usage.gcPause)
	m["process.peak_rss_mb"] = use.peakRSSMB
	return nil
}

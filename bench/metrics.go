package main

// metricDef declares one metric the program prints. BENCHMARK.json and
// README.md list the same names, units, directions and bounds; the smoke
// test fails when the three drift apart.
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: share of the parent's median the metric may worsen by
}

var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"tables_per_s", "tables/s", "higher", 0.25},
	{"latency_ms_p50", "ms", "lower", 0.25},
	{"f1", "ratio", "higher", 0.002},
	{"scanned_ratio", "ratio", "lower", 0.002},
}

func unitsOf(defs []metricDef) map[string]string {
	out := make(map[string]string, len(defs))
	for _, d := range defs {
		out[d.name] = d.unit
	}
	return out
}

var endToEndUnits = unitsOf(endToEndMetrics)

// perLayerMetrics are printed by the traced run (-trace 1) and never gated.
var perLayerMetrics = []metricDef{
	{name: "simdb.wait_ms_per_table", unit: "ms", better: "lower"},
	{name: "simdb.queries", unit: "count", better: "lower"},
	{name: "simdb.scans", unit: "count", better: "lower"},
	{name: "simdb.cells_scanned", unit: "count", better: "lower"},
	{name: "simdb.bytes", unit: "bytes", better: "lower"},
	{name: "simdb.connect_ms", unit: "ms", better: "lower"},
	{name: "simdb.table_metadata_ms", unit: "ms", better: "lower"},
	{name: "simdb.scan_columns_ms", unit: "ms", better: "lower"},
	{name: "metafeat.build_us", unit: "us", better: "lower"},
	{name: "tokenizer.tokens_per_s", unit: "tokens/s", better: "higher"},
	{name: "adtd.build_meta_input_us", unit: "us", better: "lower"},
	{name: "adtd.build_content_input_us", unit: "us", better: "lower"},
	{name: "adtd.meta_forward_ms_p50", unit: "ms", better: "lower"},
	{name: "adtd.content_forward_b1_ms_p50", unit: "ms", better: "lower"},
	{name: "adtd.content_forward_b8_ms_p50", unit: "ms", better: "lower"},
	{name: "adtd.content_ms_per_chunk_b8", unit: "ms", better: "lower"},
	{name: "adtd.content_forward_b8_int8_ms_p50", unit: "ms", better: "lower"},
	{name: "nn.attention_l128_us", unit: "us", better: "lower"},
	{name: "nn.attention_l512_us", unit: "us", better: "lower"},
	{name: "tensor.linear_us", unit: "us", better: "lower"},
	{name: "nn.attention_l128_flops", unit: "flops", better: "lower"},
	{name: "nn.attention_l512_flops", unit: "flops", better: "lower"},
	{name: "nn.attention_l128_bytes", unit: "bytes", better: "lower"},
	{name: "nn.attention_l512_bytes", unit: "bytes", better: "lower"},
	{name: "cache.latent_get_ns", unit: "ns", better: "lower"},
	{name: "cache.latent_put_ns", unit: "ns", better: "lower"},
	{name: "cache.result_get_ns", unit: "ns", better: "lower"},
	{name: "cache.result_put_ns", unit: "ns", better: "lower"},
	{name: "cache.latent_hit_ratio", unit: "ratio", better: "higher"},
	{name: "cache.result_hit_ratio", unit: "ratio", better: "higher"},
	{name: "cache.evictions", unit: "count", better: "lower"},
	{name: "pipeline.dispatch_us_per_stage", unit: "us", better: "lower"},
	{name: "pipeline.steals", unit: "count", better: "lower"},
	{name: "pipeline.overlap_ratio", unit: "ratio", better: "higher"},
	{name: "core.detect_table_ms_p50", unit: "ms", better: "lower"},
	{name: "core.self_ms", unit: "ms", better: "lower"},
	{name: "core.content_forwards", unit: "count", better: "lower"},
	{name: "core.batch_occupancy", unit: "ratio", better: "higher"},
	{name: "core.prefetch_hit_ratio", unit: "ratio", better: "higher"},
	{name: "core.retries", unit: "count", better: "lower"},
	{name: "core.degraded_columns", unit: "count", better: "lower"},
	{name: "service.self_us", unit: "us", better: "lower"},
	{name: "service.http_us", unit: "us", better: "lower"},
	{name: "service.coalesced", unit: "count", better: "higher"},
	{name: "service.batcher_queue_delay_ms", unit: "ms", better: "lower"},
	{name: "service.batch_chunks_mean", unit: "ratio", better: "higher"},
	{name: "service.latency_ms_p95", unit: "ms", better: "lower"},
	{name: "service.latency_ms_p99", unit: "ms", better: "lower"},
	{name: "fleet.ring_lookup_ns", unit: "ns", better: "lower"},
	{name: "fleet.proxy_overhead_us", unit: "us", better: "lower"},
	{name: "registry.checkpoint_load_ms", unit: "ms", better: "lower"},
	{name: "process.cpu_ms_per_table", unit: "ms", better: "lower"},
	{name: "process.peak_rss_mb", unit: "MB", better: "lower"},
	{name: "process.allocs_per_table", unit: "count", better: "lower"},
	{name: "process.gc_pause_ms_total", unit: "ms", better: "lower"},
	{name: "trace.unattributed_share", unit: "ratio", better: "lower"},
	{name: "trace.replay_vs_e2e", unit: "ratio", better: "higher"},
}

var perLayerUnits = unitsOf(perLayerMetrics)

package main

// metricDef declares one metric: its name, unit, which direction is better
// and, for end-to-end metrics, the share of the baseline's median by which it
// may worsen before `bench compare` calls it a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndDefs are the metrics BENCHMARK.json declares. Its contract has
// every workload report every one of them and holds each to a steadiness
// test, so the set is what exists on all five workloads and stays steady on
// a shared two-core host: a median latency, the server's CPU cost and the
// set-up time. What the latency times and what a million operations are is
// fixed per workload (workload.latency, workload.unit).
var endToEndDefs = []metricDef{
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"serve_cpu_s_per_mop", "s/Mop", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// extraDefs are the other end-to-end metrics: the ones only some workloads
// have, and the ones too unsteady on a shared host to pass the contract's
// test on every workload (closed-loop throughput swings with the host's
// cross-CPU wake-up latency, tails with its stalls). They are printed,
// written to the run file and held to these bounds by `bench compare`, which
// calls a row unresolved when the baseline's own spread exceeds the bound.
var extraDefs = []metricDef{
	{"throughput_per_s", "1/s", "higher", 0.15},
	{"latency_tail_ms", "ms", "lower", 0.25},
	{"recovery_s", "s", "lower", 0.25},              // durable-collector
	{"ingest_records_per_s", "1/s", "higher", 0.10}, // dashboard-live
	{"ingest_ack_p50_ms", "ms", "lower", 0.15},      // dashboard-live, edge-core
	{"ingest_ack_tail_ms", "ms", "lower", 0.25},     // dashboard-live, edge-core
}

// perLayerDefs are the metrics of single layers a traced run reports, named
// layer.metric after this repository's packages. A counter that a workload
// does not exercise reads 0 there.
var perLayerDefs = []metricDef{
	{Name: "notary.tsv_decode_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "notary.tsv_allocs_per_record", Unit: "count", Better: "lower"},
	{Name: "notary.tsv_bytes_per_record", Unit: "B", Better: "lower"},
	{Name: "notary.tlsb_decode_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "notary.tlsb_allocs_per_record", Unit: "count", Better: "lower"},
	{Name: "notary.tlsb_bytes_per_record", Unit: "B", Better: "lower"},
	{Name: "notary.add_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "notary.tsv_encode_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "notary.snapshot_encode_ms", Unit: "ms", Better: "lower"},
	{Name: "notary.snapshot_decode_ms", Unit: "ms", Better: "lower"},
	{Name: "notary.snapshot_bytes", Unit: "B", Better: "lower"},
	{Name: "core.merge_shard_us.4096", Unit: "us", Better: "lower"},
	{Name: "core.merge_shard_us.256", Unit: "us", Better: "lower"},
	{Name: "core.frame_rebuild_us", Unit: "us", Better: "lower"},
	{Name: "core.query_hit_us", Unit: "us", Better: "lower"},
	{Name: "core.query_miss_us", Unit: "us", Better: "lower"},
	{Name: "core.query_miss_bump_us", Unit: "us", Better: "lower"},
	{Name: "core.plan_compiles_per_query", Unit: "count", Better: "lower"},
	{Name: "core.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "analysis.new_frame_us", Unit: "us", Better: "lower"},
	{Name: "analysis.parse_us", Unit: "us", Better: "lower"},
	{Name: "analysis.compile_us", Unit: "us", Better: "lower"},
	{Name: "analysis.eval_us", Unit: "us", Better: "lower"},
	{Name: "analysis.marshal_us", Unit: "us", Better: "lower"},
	{Name: "analysis.cache_get_ns", Unit: "ns", Better: "lower"},
	{Name: "analysis.cache_put_ns", Unit: "ns", Better: "lower"},
	{Name: "analysis.cache_evictions", Unit: "count", Better: "lower"},
	{Name: "service.ingest_handler_ns_per_record.tsv", Unit: "ns", Better: "lower"},
	{Name: "service.ingest_handler_ns_per_record.tlsb", Unit: "ns", Better: "lower"},
	{Name: "service.ingest_self_share", Unit: "ratio", Better: "lower"},
	{Name: "service.queue_depth_max", Unit: "count", Better: "lower"},
	{Name: "service.queue_shed", Unit: "count", Better: "lower"},
	{Name: "service.query_handler_us.hit", Unit: "us", Better: "lower"},
	{Name: "service.query_handler_us.miss", Unit: "us", Better: "lower"},
	{Name: "service.query_self_us", Unit: "us", Better: "lower"},
	{Name: "service.net_overhead_us", Unit: "us", Better: "lower"},
	{Name: "service.snapshot_write_ms", Unit: "ms", Better: "lower"},
	{Name: "service.snapshots_written", Unit: "count", Better: "lower"},
	{Name: "service.recover_study_ms", Unit: "ms", Better: "lower"},
	{Name: "service.recover_log_scan_records_per_s", Unit: "1/s", Better: "higher"},
	{Name: "service.acked_lost_records", Unit: "count", Better: "lower"},
	{Name: "service.tee_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "service.shards_merged", Unit: "count", Better: "higher"},
	{Name: "federation.encode_delta_ms", Unit: "ms", Better: "lower"},
	{Name: "federation.decode_delta_ms", Unit: "ms", Better: "lower"},
	{Name: "federation.delta_bytes_per_record", Unit: "B", Better: "lower"},
	{Name: "federation.pusher_observe_us", Unit: "us", Better: "lower"},
	{Name: "federation.merge_handler_ms", Unit: "ms", Better: "lower"},
	{Name: "federation.push_rtt_ms", Unit: "ms", Better: "lower"},
	{Name: "federation.deltas_shipped", Unit: "count", Better: "higher"},
	{Name: "federation.upstream_errors", Unit: "count", Better: "lower"},
	{Name: "cmd.serve_start_ms", Unit: "ms", Better: "lower"},
	{Name: "cmd.serve_peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "cmd.serve_cpu_us_per_query", Unit: "us", Better: "lower"},
	{Name: "loadgen.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.pace_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.trace_overhead_pct", Unit: "%", Better: "lower"},
}

func defNames(defs []metricDef) []string {
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.Name
	}
	return names
}

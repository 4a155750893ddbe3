package main

// metricDef is one row of BENCHMARK.json: the benchmark binary and the
// contract file are held to the same table by TestBenchmarkJSONMatches.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// metricSet holds measured values by metric name.
type metricSet map[string]float64

// endToEndDefs are the metrics a user of the system sees. Every workload
// reports every one (the contract allows no per-workload metric list), so
// the two latency metrics are named by role: each workload has a primary
// and a secondary operation class, listed in classRoles. The regression
// bounds follow the measured run-to-run spread on the sandbox (README,
// "Repeatability"): the timing metrics get the contract's maximum.
var endToEndDefs = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "primary_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "secondary_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.10},
}

// classRoles maps each workload's two roles to the issue's metric names:
// primary_p50_ms on serve-mixed is the issue's point_p50_ms, and so on.
var classRoles = map[string][2]string{
	"serve-mixed":     {"point_p50_ms", "agg_p50_ms"},
	"fixpoint-batch":  {"pagerank_run_ms", "sssp_run_ms"},
	"standing-churn":  {"ingest_p50_ms", "agg_p50_ms"},
	"cluster-durable": {"ingest_p50_ms", "sssp_run_ms"},
}

// perLayerDefs are the single-layer metrics of the traced pass. A layer a
// workload does not exercise reports 0 — on that workload the prediction
// for any change to the layer is "no movement".
var perLayerDefs = []metricDef{
	// client: per-class numbers the contract's shared end-to-end list has
	// no room for — tails (the highest percentile with >= 10 samples
	// beyond it, and which percentile that was) and ingest volume.
	{Name: "client.primary_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "client.primary_tail_pctl", Unit: "count", Better: "higher"},
	{Name: "client.secondary_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "client.secondary_tail_pctl", Unit: "count", Better: "higher"},
	{Name: "client.scan_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.ingest_deltas_per_s", Unit: "1/s", Better: "higher"},

	{Name: "server.overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "server.ingest_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "server.scaling_2c", Unit: "ratio", Better: "higher"},
	{Name: "server.plan_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.compiles", Unit: "count", Better: "lower"},
	{Name: "server.rejected", Unit: "count", Better: "lower"},

	{Name: "srvproto.rows_frame_us", Unit: "us", Better: "lower"},
	{Name: "srvproto.args_codec_ns", Unit: "ns", Better: "lower"},
	{Name: "srvproto.result_bytes_per_query", Unit: "bytes", Better: "lower"},

	{Name: "rql.compile_us", Unit: "us", Better: "lower"},
	{Name: "rql.bind_us", Unit: "us", Better: "lower"},

	{Name: "expr.kernel_compile_us", Unit: "us", Better: "lower"},
	{Name: "expr.filter_kernel_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "expr.filter_interp_ns_per_row", Unit: "ns", Better: "lower"},

	{Name: "exec.direct_point_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.direct_agg_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.round_direct_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.kernel_vector_ratio", Unit: "ratio", Better: "higher"},
	{Name: "exec.kernel_bridged_batches", Unit: "count", Better: "lower"},
	{Name: "exec.kernel_fallback_evals", Unit: "count", Better: "lower"},
	{Name: "exec.strata_per_run", Unit: "count", Better: "lower"},
	{Name: "exec.delta_tuples_per_run", Unit: "count", Better: "lower"},
	{Name: "exec.stratum_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "exec.stratum_ms_max", Unit: "ms", Better: "lower"},
	{Name: "exec.first_stratum_share", Unit: "ratio", Better: "lower"},
	{Name: "exec.round_strata_mean", Unit: "count", Better: "lower"},
	{Name: "exec.round_deltas_mean", Unit: "count", Better: "lower"},
	{Name: "exec.coalesce_ratio", Unit: "ratio", Better: "lower"},

	{Name: "cluster.wire_bytes_per_run", Unit: "bytes", Better: "lower"},
	{Name: "cluster.wire_bytes_per_delta", Unit: "bytes", Better: "lower"},
	{Name: "cluster.shuffle_deltas_per_run", Unit: "count", Better: "lower"},
	{Name: "cluster.compact_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cluster.compactor_ns_per_delta", Unit: "ns", Better: "lower"},
	{Name: "cluster.frame_encode_ns_per_delta", Unit: "ns", Better: "lower"},
	{Name: "cluster.frame_decode_ns_per_delta", Unit: "ns", Better: "lower"},
	{Name: "cluster.rowframe_encode_ns_per_delta", Unit: "ns", Better: "lower"},
	{Name: "cluster.rowframe_decode_ns_per_delta", Unit: "ns", Better: "lower"},
	{Name: "cluster.tcp_overhead_ms", Unit: "ms", Better: "lower"},

	{Name: "types.batch_encode_ns_per_delta", Unit: "ns", Better: "lower"},
	{Name: "types.batch_decode_ns_per_delta", Unit: "ns", Better: "lower"},
	{Name: "types.rows_to_batch_ns_per_delta", Unit: "ns", Better: "lower"},
	{Name: "types.batch_to_rows_ns_per_delta", Unit: "ns", Better: "lower"},

	{Name: "storage.scan_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "storage.apply_ns_per_delta", Unit: "ns", Better: "lower"},

	{Name: "pagestore.pool_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "pagestore.evictions", Unit: "count", Better: "lower"},
	{Name: "pagestore.bytes_spilled", Unit: "bytes", Better: "lower"},
	{Name: "pagestore.paging_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "pagestore.commit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "pagestore.commit_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "pagestore.insert_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "pagestore.scan_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "pagestore.wal_bytes_per_delta", Unit: "bytes", Better: "lower"},
	{Name: "pagestore.disk_bytes_per_user_byte", Unit: "ratio", Better: "lower"},

	{Name: "job.spec_bytes", Unit: "bytes", Better: "lower"},
	{Name: "job.build_ms", Unit: "ms", Better: "lower"},
	{Name: "job.ship_build_ms", Unit: "ms", Better: "lower"},

	{Name: "harness.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "harness.op_self_us", Unit: "us", Better: "lower"},
}

// workloadDefs are the four workloads, with the one-line reason each
// exists (the README gives the long form).
var workloadDefs = []struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}{
	{"serve-mixed", "ad hoc read path through rexd: srvproto framing, admission, plan cache, rql bind, scan/filter/group-by kernels; almost no shuffle, fixpoint or disk"},
	{"fixpoint-batch", "the paper's delta fixpoints (PageRank, SSSP) in-process: exec fixpoint/rehash, compactor, frame codec, batch-row conversion; no server or storage layer runs"},
	{"standing-churn", "writes through rexd: ingest fan-out to staged copies, replay log, resident subscription rounds, with an ad hoc reader contending"},
	{"cluster-durable", "TCP daemons with paged durable stores: cluster/tcp, job spec shipping and rebuild, noded, pagestore paging and WAL fsync per committed round"},
}

package main

// metricDef names one reported metric. BENCHMARK.json at the repository
// root carries the same names, units, directions and bounds; a test keeps
// the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: relative worsening that counts as a regression
	moves  string  // per-layer only: the end-to-end metric it should move, and where
}

// endToEnd is what a caller of the serving stack sees. Every workload
// reports all of it, measured with tracing off. The timing bounds are as wide
// as they are because two runs of the same code a few minutes apart differ
// by up to 15 % on the shared box the benchmark was sized on; the spreads
// measured there are in benchmarks/README.md.
var endToEnd = []metricDef{
	{name: "qps", unit: "queries/s", better: "higher", bound: 0.25},
	{name: "latency_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "latency_p95_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "live_heap_mb", unit: "MiB", better: "lower", bound: 0.05},
}

// perLayer is the ledger: one row per quantity a single layer owns, from
// the traced pass, the layer probes and QueryStats. Rows have no bound.
var perLayer = []metricDef{
	// client: transport/tcp/client.go behind RemoteCluster.
	{name: "client.latency_p99_ms", unit: "ms", better: "lower", moves: "tail beyond latency_p95_ms, all"},
	{name: "client.overhead_us_mean", unit: "us", better: "lower", moves: "latency_p50_ms on pruned_mixed"},
	{name: "client.retries_per_query", unit: "count", better: "lower", moves: "failed, all"},
	{name: "client.timeouts_per_query", unit: "count", better: "lower", moves: "failed, all"},

	// scheduler: frontend.go and scheduler.go, from epoch span offsets.
	{name: "scheduler.admit_wait_us_mean", unit: "us", better: "lower", moves: "latency_p95_ms on coalesced_mux"},
	{name: "scheduler.dispatch_us_p50", unit: "us", better: "lower", moves: "latency_p50_ms on mesh_rounds, pruned_mixed"},
	{name: "scheduler.first_seat_us_p50", unit: "us", better: "lower", moves: "latency_p50_ms on mesh_rounds, pruned_mixed"},
	{name: "scheduler.straggler_us_p50", unit: "us", better: "lower", moves: "latency_p95_ms on mesh_scan"},
	{name: "scheduler.collate_us_p50", unit: "us", better: "lower", moves: "latency_p50_ms on mesh_rounds, pruned_mixed"},
	{name: "scheduler.reply_us_p50", unit: "us", better: "lower", moves: "latency_p50_ms on mesh_rounds, pruned_mixed"},
	{name: "scheduler.epochs_per_query", unit: "count", better: "lower", moves: "qps on coalesced_mux; 1 on mesh_rounds"},
	{name: "scheduler.window_occupancy_mean", unit: "count", better: "higher", moves: "qps on coalesced_mux; <=2 on mesh_rounds"},
	{name: "scheduler.coalesced_batch_mean", unit: "count", better: "higher", moves: "qps on coalesced_mux; 0 on mesh_rounds"},
	{name: "scheduler.linger_us_mean", unit: "us", better: "lower", moves: "latency_p50_ms on coalesced_mux; 0 on mesh_rounds"},

	// mesh: tcp.go, batch.go, serve.go.
	{name: "mesh.rounds_per_query", unit: "count", better: "lower", moves: "latency_p50_ms, qps on mesh_rounds; amortised on coalesced_mux; 0 on pruned_mixed"},
	{name: "mesh.messages_per_query", unit: "count", better: "lower", moves: "qps on mesh_rounds"},
	{name: "mesh.bytes_per_query", unit: "B", better: "lower", moves: "qps on mesh_rounds"},
	{name: "mesh.us_per_round", unit: "us", better: "lower", moves: "latency_p50_ms, qps on mesh_rounds"},
	{name: "mesh.transport_share", unit: "ratio", better: "lower", moves: "latency_p50_ms on mesh_rounds: the departure from rounds x RTT"},
	{name: "node.ctrl_bytes_in_per_query", unit: "B", better: "lower", moves: "qps on pruned_mixed"},
	{name: "node.ctrl_bytes_out_per_query", unit: "B", better: "lower", moves: "qps on pruned_mixed: the gather of c*l items"},
	{name: "node.epoch_errors", unit: "count", better: "lower", moves: "failed, all"},

	// core, dsel, kmachine: the paper's protocol, from QueryStats and the simulator.
	{name: "core.iterations_per_query", unit: "count", better: "lower", moves: "latency_p95_ms on mesh_rounds, coalesced_mux"},
	{name: "core.survivors_per_query", unit: "count", better: "lower", moves: "latency_p95_ms on mesh_rounds, coalesced_mux"},
	{name: "core.fallback_share", unit: "ratio", better: "lower", moves: "latency_p95_ms on mesh_rounds, coalesced_mux"},
	{name: "core.sim_ms_per_query", unit: "ms", better: "lower", moves: "latency_p50_ms on mesh_rounds, with no sockets"},

	// prune: metricindex and runPruned.
	{name: "prune.contacts_per_query", unit: "count", better: "lower", moves: "qps, latency_p50_ms on pruned_mixed; 0 elsewhere"},
	{name: "prune.waves_per_query", unit: "count", better: "lower", moves: "latency_p50_ms on pruned_mixed; 0 elsewhere"},
	{name: "prune.shards_skipped_per_query", unit: "count", better: "higher", moves: "qps on pruned_mixed; 0 elsewhere"},
	{name: "prune.contact_ratio", unit: "ratio", better: "lower", moves: "qps on pruned_mixed; 0 elsewhere"},
	{name: "metricindex.kcenter_ms", unit: "ms", better: "lower", moves: "setup_s on pruned_mixed"},
	{name: "metricindex.admit_ns", unit: "ns", better: "lower", moves: "qps on pruned_mixed"},

	// points, pq, kdtree: the local top-l step.
	{name: "points.topl_scan_ms", unit: "ms", better: "lower", moves: "qps, latency_p50_ms on mesh_scan; none on the vector workloads"},
	{name: "kdtree.build_ms", unit: "ms", better: "lower", moves: "setup_s on mesh_rounds, coalesced_mux, pruned_mixed"},
	{name: "kdtree.knn_us_l64", unit: "us", better: "lower", moves: "minor on mesh_rounds"},
	{name: "kdtree.knn_us_l512", unit: "us", better: "lower", moves: "qps on pruned_mixed"},

	// wire: frame encode and decode, and the buffer pools.
	{name: "wire.query_frame_ns", unit: "ns", better: "lower", moves: "qps on pruned_mixed"},
	{name: "wire.result_frame_us_l512", unit: "us", better: "lower", moves: "qps on pruned_mixed"},
	{name: "wire.writer_pool_miss_share", unit: "ratio", better: "lower", moves: "runtime.allocs_per_query"},
	{name: "wire.frame_pool_miss_share", unit: "ratio", better: "lower", moves: "runtime.allocs_per_query"},

	// runtime, obs and the benchmark's own noise reading.
	{name: "runtime.cpu_ms_per_query", unit: "ms", better: "lower", moves: "qps, all: the whole cluster is in this process"},
	{name: "runtime.allocs_per_query", unit: "count", better: "lower", moves: "qps, latency_p95_ms, all"},
	{name: "runtime.alloc_kb_per_query", unit: "KiB", better: "lower", moves: "qps, latency_p95_ms, all"},
	{name: "runtime.gc_cycles", unit: "count", better: "lower", moves: "latency_p95_ms, all"},
	{name: "runtime.gc_pause_ms", unit: "ms", better: "lower", moves: "latency_p95_ms, all"},
	{name: "runtime.peak_rss_mb", unit: "MiB", better: "lower", moves: "live_heap_mb, all"},
	{name: "runtime.goroutines_leaked", unit: "count", better: "lower", moves: "none; expected 0"},
	{name: "obs.trace_overhead_share", unit: "ratio", better: "lower", moves: "qps, all: what tracing itself costs"},
	{name: "bench.round_spread_qps", unit: "ratio", better: "lower", moves: "none: the run's own noise reading"},
	{name: "bench.samples", unit: "count", better: "higher", moves: "none: size of the pooled latency sample"},
}

// metric is one reported value, as the benchmark contract prints it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// values collects measurements by name; report turns them into the printed
// metrics and fails on a name that was defined but never measured.
type values map[string]float64

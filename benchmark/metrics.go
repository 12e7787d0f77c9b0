package main

// metricDef names one reported number. BENCHMARK.json lists the same names,
// units, directions and bounds; TestBenchmarkJSONMatches keeps the two in
// step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the numbers a user of the DHT sees, defined and non-zero on
// all four workloads. fail_ratio (zero by design) and join_p50_ms /
// leave_p50_ms (live_churn only) are end-to-end too, but a metric in this
// list must be non-zero on every workload, so they are reported with the
// per-layer set under their own names and checked by -aa. So is op_p99_us:
// the tail is bounded as op_p99_over_p50, which repeats five times better
// (stats.go, tailRatio), and the absolute value is reported beside it.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"op_p99_over_p50", "ratio", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.05},
	{"alloc_bytes_per_op", "B", "lower", 0.05},
	{"hops_per_op", "count", "lower", 0.03},
	{"live_heap_mb", "MB", "lower", 0.10},
}

// perLayer are counts and timings of single modules, taken from outside
// through exported functions only. A metric is 0 on a workload that
// bypasses its layer; that zero is the statement that it bypasses.
var perLayer = []metricDef{
	{name: "fail_ratio", unit: "ratio", better: "lower"},
	{name: "op_p99_us", unit: "us", better: "lower"},
	{name: "verify_mismatches", unit: "count", better: "lower"},
	{name: "join_p50_ms", unit: "ms", better: "lower"},
	{name: "leave_p50_ms", unit: "ms", better: "lower"},
	{name: "churn.sched_late_p50_ms", unit: "ms", better: "lower"},
	{name: "churn.sched_late_max_ms", unit: "ms", better: "lower"},

	{name: "p2p.wire.rpc0_p50_us", unit: "us", better: "lower"},
	{name: "p2p.wire.rpc0_allocs", unit: "count", better: "lower"},
	{name: "p2p.wire.rpc0_bytes", unit: "B", better: "lower"},
	{name: "p2p.wire.hop_us", unit: "us", better: "lower"},
	{name: "p2p.wire.hop_allocs", unit: "count", better: "lower"},
	{name: "p2p.wire.rpcs_per_op", unit: "count", better: "lower"},

	{name: "p2p.routing.hops_max", unit: "count", better: "lower"},
	{name: "p2p.routing.msgs_routed_per_op", unit: "count", better: "lower"},
	{name: "p2p.routing.stale_repairs_per_op", unit: "count", better: "lower"},
	{name: "p2p.routing.load_max_over_mean", unit: "ratio", better: "lower"},
	{name: "p2p.routing.trace_hop_self_p50_us", unit: "us", better: "lower"},
	{name: "p2p.routing.trace_owner_self_p50_us", unit: "us", better: "lower"},

	{name: "p2p.client.retry_ratio", unit: "ratio", better: "lower"},
	{name: "p2p.client.op_p999_us", unit: "us", better: "lower"},

	{name: "p2p.replication.quorum_wait_p50_us", unit: "us", better: "lower"},
	{name: "p2p.replication.repl_puts_per_put", unit: "count", better: "lower"},
	{name: "p2p.replication.quorum_fail_ratio", unit: "ratio", better: "lower"},
	{name: "p2p.replication.fallbacks_per_get", unit: "count", better: "lower"},

	{name: "p2p.handoff.items_per_event", unit: "count", better: "lower"},
	{name: "p2p.handoff.bytes_per_event", unit: "B", better: "lower"},
	{name: "p2p.handoff.prepares_per_commit", unit: "ratio", better: "lower"},
	{name: "p2p.handoff.aborts", unit: "count", better: "lower"},

	{name: "handoff.stream_mb_s", unit: "MB/s", better: "higher"},
	{name: "handoff.stream_allocs_per_item", unit: "count", better: "lower"},
	{name: "handoff.move_items_per_s", unit: "1/s", better: "higher"},

	{name: "store.mem_get_ns", unit: "ns", better: "lower"},
	{name: "store.mem_put_ns", unit: "ns", better: "lower"},
	{name: "store.log_get_ns", unit: "ns", better: "lower"},
	{name: "store.log_put_ns", unit: "ns", better: "lower"},
	{name: "store.log_put_fsync_us", unit: "us", better: "lower"},
	{name: "store.split_range_us", unit: "us", better: "lower"},
	{name: "store.log_disk_bytes_per_user_byte", unit: "ratio", better: "lower"},

	{name: "replicate.payloads_ns", unit: "ns", better: "lower"},
	{name: "replicate.reconstruct_ns", unit: "ns", better: "lower"},
	{name: "erasure.encode_mb_s", unit: "MB/s", better: "higher"},

	{name: "hashing.point_ns", unit: "ns", better: "lower"},
	{name: "interval.walkprefix_ns", unit: "ns", better: "lower"},

	{name: "route.fastlookup_ns", unit: "ns", better: "lower"},
	{name: "route.fastlookup_allocs", unit: "count", better: "lower"},
	{name: "partition.cover_ns", unit: "ns", better: "lower"},
	{name: "condisc.put_ns", unit: "ns", better: "lower"},
	{name: "condisc.build_s", unit: "s", better: "lower"},
	{name: "condisc.wave16_ms", unit: "ms", better: "lower"},

	{name: "telemetry.counter_inc_ns", unit: "ns", better: "lower"},
	{name: "telemetry.histogram_observe_ns", unit: "ns", better: "lower"},
	{name: "journal.record_ns", unit: "ns", better: "lower"},

	{name: "proc.gc_cycles", unit: "count", better: "lower"},
	{name: "proc.gc_pause_total_ms", unit: "ms", better: "lower"},
	{name: "proc.goroutines_peak", unit: "count", better: "lower"},
	{name: "proc.sockets_opened_per_op", unit: "count", better: "lower"},

	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
}

// workloadDef names one workload and why it exists.
type workloadDef struct{ name, why string }

var workloads = []workloadDef{
	{"live_get", "128 B reads over 32 TCP nodes: wire and routing do the work; replication, WAL and handoff do none"},
	{"live_put_k3", "4 KiB writes, k=3 majority quorum on WAL stores: adds quorum wait, replica payloads and log append"},
	{"live_churn", "reads during an open-loop join/leave schedule: handoff streaming and session bookkeeping do the work"},
	{"sim_read", "the same lookup walk in the 100k-server simulator: no sockets, so it bypasses every wire change"},
}

package main

// metricDoc describes one metric of BENCHMARK.json. The self-tests hold
// BENCHMARK.json to these tables.
type metricDoc struct {
	name, unit, better string
	// bound is the share by which an end-to-end metric may worsen
	// against the parent's median before a change counts as a regression.
	bound float64
	// moves names, for a per-layer metric, the end-to-end metric and the
	// workload it should move.
	moves string
}

// endToEnd are the untraced run's gated metrics: server CPU time, not
// wall time, so that CPU time the host steals from a shared virtual
// machine does not count (see runServed). setup_s is the server's CPU
// time from exec to prefilled, the median of several set-ups.
// Throughput, latency, modeled cycles and the error ratio are printed
// beside them, so a regression in wall time that costs no server CPU
// time (lock contention, serialised shards, I/O waits) shows there and
// is not gated. Host time and modeled DDR3 time are never mixed.
var endToEnd = []metricDoc{
	{name: "server_cpu_us_per_op", unit: "us", better: "lower", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "server_rss_mb", unit: "MB", better: "lower", bound: 0.1},
	{name: "onchip_kb", unit: "KB", better: "lower", bound: 0.05},
}

// perLayer are the traced run's metrics. Host times are mean self time
// per user op in wall-clock ns unless the name says otherwise; modeled
// numbers are in cycles. A layer a workload bypasses reports 0. moves
// names metrics the untraced run prints beside the gated ones, and
// wal-single and mem-batch-ct, which are run by hand (see workloads).
var perLayer = []metricDoc{
	{name: "service.handler_ns", unit: "ns", better: "lower", moves: "req_p50_us on mem-single-ct, dram-recursive and wal-single"},
	{name: "service.transport_ns", unit: "ns", better: "lower", moves: "req_p50_us on mem-single-ct, dram-recursive and wal-single"},
	{name: "service.wire_bytes_per_op", unit: "count", better: "lower", moves: "server_cpu_us_per_op and ops_per_s on mem-single-ct and mem-batch-ct"},
	{name: "shard.batch_ns", unit: "ns", better: "lower", moves: "req_p99_us on mem-batch-ct; 0 on single-op workloads"},
	{name: "shard.wait_ns", unit: "ns", better: "lower", moves: "server_cpu_us_per_op and ops_per_s on mem-single-ct and mem-batch-ct"},
	{name: "shard.imbalance", unit: "ratio", better: "lower", moves: "req_p99_us on mem-batch-ct; 0 on single-op workloads"},
	{name: "core.access_self_ns", unit: "ns", better: "lower", moves: "server_cpu_us_per_op and ops_per_s on mem-single-ct and mem-batch-ct"},
	{name: "core.paths_per_op", unit: "count", better: "lower", moves: "server_cpu_us_per_op and ops_per_s on every workload"},
	{name: "hierarchy.chain_len", unit: "count", better: "lower", moves: "modeled_cycles_per_op on dram-recursive"},
	{name: "hierarchy.plb_hit_ratio", unit: "ratio", better: "higher", moves: "modeled_cycles_per_op on dram-recursive"},
	{name: "hierarchy.posmap_levels_ns", unit: "ns", better: "lower", moves: "server_cpu_us_per_op and ops_per_s on dram-recursive"},
	{name: "encrypt.read_self_ns", unit: "ns", better: "lower", moves: "server_cpu_us_per_op and ops_per_s on mem-single-ct and mem-batch-ct, req_p50_us on wal-single"},
	{name: "encrypt.write_self_ns", unit: "ns", better: "lower", moves: "server_cpu_us_per_op and ops_per_s on mem-single-ct and mem-batch-ct, req_p50_us on wal-single"},
	{name: "storage.read_ns", unit: "ns", better: "lower", moves: "req_p50_us on wal-single"},
	{name: "storage.append_ns", unit: "ns", better: "lower", moves: "req_p50_us on wal-single"},
	{name: "storage.checkpoint_ns", unit: "ns", better: "lower", moves: "req_p99_us on wal-single"},
	{name: "storage.checkpoints_per_kop", unit: "count", better: "lower", moves: "ops_per_s on wal-single"},
	{name: "storage.bytes_per_op", unit: "count", better: "lower", moves: "ops_per_s on wal-single"},
	{name: "membus.host_ns_per_path", unit: "ns", better: "lower", moves: "server_cpu_us_per_op and ops_per_s on dram-recursive, with modeled_cycles_per_op unchanged"},
	{name: "membus.read_cycles_per_path", unit: "cycles", better: "lower", moves: "modeled_cycles_per_op on dram-recursive"},
	{name: "dram.row_hit_ratio", unit: "ratio", better: "higher", moves: "modeled_cycles_per_op on dram-recursive"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower", moves: "none: untraced over traced engine ops/s"},
}

// unitOf returns the documented unit of a BENCHMARK.json metric.
func unitOf(name string) string {
	for _, docs := range [][]metricDoc{endToEnd, perLayer} {
		for _, d := range docs {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("perfbench: undocumented metric " + name)
}

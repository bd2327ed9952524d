package main

// metricDef names one metric and its unit. The same lists, with direction
// and bound, are in ../BENCHMARK.json; bench_test.go holds the two equal.
type metricDef struct{ name, unit string }

// endToEnd is what a client of the engine sees. Every workload reports
// every one of them (BENCHMARK.json's contract); bench/README.md says
// which workload each is primarily judged on.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"read_p50_us", "us"},
	{"write_p50_us", "us"},
	{"alloc_bytes_per_op", "B"},
	{"allocs_per_op", "count"},
	{"heap_bytes_per_tuple", "B"},
	{"wal_bytes_per_user_byte", "ratio"},
	{"recover_replays_per_s", "1/s"},
}

// perLayer is what single layers cost, from the traced run only. The
// prefix of a name is the module (internal/<prefix>) the number belongs
// to; "ladder" rows are the harness's own top-rung totals, which the
// increments of the rows below them sum to.
var perLayer = []metricDef{
	// Synthesis: the set-up of every workload.
	{"dsl.parse_us", "us"},
	{"decomp.adequacy_us", "us"},
	{"plan.cold_plan_us", "us"},
	{"codegen.generate_us", "us"},
	{"autotuner.enumerate_us", "us"},
	// Query path.
	{"core.plancache_hit_us", "us"},
	{"core.plancache_hit_share", "ratio"},
	{"plan.exec_point_us", "us"},
	{"plan.exec_scan_us", "us"},
	{"plan.exec_range_us", "us"},
	{"plan.exec_collect_us", "us"},
	{"plan.exec_interp_us", "us"},
	{"plan.exec_compiled_us", "us"},
	{"plan.exec_vectorized_us", "us"},
	{"plan.collect_allocs_per_call", "count"},
	{"core.exec_tier_share.point", "ratio"},
	{"core.exec_tier_share.compiled", "ratio"},
	{"core.exec_tier_share.vectorized", "ratio"},
	{"core.exec_tier_share.interpreted", "ratio"},
	// Read ladder: the same point reads, bottom rung, then rung minus rung
	// below.
	{"core.bare_read_us", "us"},
	{"core.snapshot_read_us", "us"},
	{"core.shard_route_us", "us"},
	{"repl.replica_read_us", "us"},
	{"ladder.read_top_us", "us"},
	// Write ladder: the same op stream, rung minus rung below.
	{"instance.inplace_write_us", "us"},
	{"core.cow_publish_us", "us"},
	{"core.cow_bytes_per_write", "B"},
	{"core.cow_node_clones_per_write", "count"},
	{"core.cow_map_clones_per_write", "count"},
	{"core.shard_write_us", "us"},
	{"core.durable_write_us", "us"},
	{"repl.sink_us", "us"},
	{"repl.ship_us", "us"},
	{"ladder.write_top_us", "us"},
	// The tail latencies of the workload's own rung, demoted from the
	// end-to-end list (README, "Demoted").
	{"ladder.own_read_p99_us", "us"},
	{"ladder.own_write_p99_us", "us"},
	{"core.mut_validate_us", "us"},
	{"core.mut_apply_us", "us"},
	// WAL probes on the commits a publisher captured.
	{"wal.encode_us", "us"},
	{"wal.append_us", "us"},
	{"wal.fsync_us", "us"},
	{"wal.bytes_per_commit", "B"},
	{"wal.fsyncs_per_commit", "ratio"},
	// Replication.
	{"repl.apply_us", "us"},
	{"repl.wire_bytes_per_record", "B"},
	{"repl.lag_p99_records", "count"},
	{"repl.lag_max_records", "count"},
	{"repl.reconnects", "count"},
	// The two-party legs, demoted from the end-to-end list (README,
	// "Demoted"): publisher and follower each need a core.
	{"repl.replica_ack_p50_us", "us"},
	{"repl.catchup_records_per_s", "1/s"},
	{"repl.bootstrap_tuples_per_s", "1/s"},
	// Recovery.
	{"wal.scan_records_per_s", "1/s"},
	{"durable.replay_us_per_commit", "us"},
	{"durable.open_other_s", "s"},
	{"durable.checkpoint_s", "s"},
	{"durable.open_after_ckpt_s", "s"},
	{"durable.recovery_replays", "count"},
	{"durable.recovery_discards", "count"},
	{"wal.snapshot_write_mb_per_s", "MB/s"},
	{"wal.snapshot_read_mb_per_s", "MB/s"},
	{"repl.bootstrap_bytes_per_tuple", "B"},
	// Containers, probed directly at 4096 entries.
	{"dstruct.htable.lookup_ns", "ns"},
	{"dstruct.htable.insert_ns", "ns"},
	{"dstruct.htable.clone_ns_per_entry", "ns"},
	{"dstruct.avl.lookup_ns", "ns"},
	{"dstruct.avl.insert_ns", "ns"},
	{"dstruct.avl.clone_ns_per_entry", "ns"},
	{"dstruct.dlist.lookup_ns", "ns"},
	{"dstruct.dlist.insert_ns", "ns"},
	{"dstruct.dlist.clone_ns_per_entry", "ns"},
	{"dstruct.skiplist.lookup_ns", "ns"},
	{"dstruct.skiplist.insert_ns", "ns"},
	{"dstruct.skiplist.clone_ns_per_entry", "ns"},
	{"dstruct.sortedarr.lookup_ns", "ns"},
	{"dstruct.sortedarr.insert_ns", "ns"},
	{"dstruct.sortedarr.clone_ns_per_entry", "ns"},
	{"dstruct.vector.lookup_ns", "ns"},
	{"dstruct.vector.insert_ns", "ns"},
	{"dstruct.vector.clone_ns_per_entry", "ns"},
	// The observability plane's own cost.
	{"obs.metrics_on_ratio", "ratio"},
	{"obs.trace_overhead_ratio", "ratio"},
}

// informational metrics are printed and saved by untraced runs but are in
// neither list of BENCHMARK.json: nothing gates on them.
var informational = []metricDef{
	{"read_p99_us", "us"},
	{"write_p99_us", "us"},
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer, informational} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("bench: metric " + name + " is not in the catalog")
}

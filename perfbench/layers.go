package main

// layerMetrics lists the per-layer metrics of a traced run, with units.
// BENCHMARK.json's per_layer entries mirror this list.
var layerMetrics = [][2]string{
	// switching, control, core: part (a) of the dimension workload.
	{"switching.compute_s", "s"},
	{"switching.calls", "count"},
	{"control.cqlf_s", "s"},
	{"core.dimension_s", "s"},
	{"core.verify_s", "s"},
	{"core.self_s", "s"},
	// mapping: part (b), the synthetic fleet.
	{"mapping.fleet_s", "s"},
	{"mapping.lookups", "count"},
	{"mapping.hit_frac", "frac"},
	{"mapping.checks_run", "count"},
	{"mapping.refuted_frac", "frac"},
	{"mapping.budget_rejects", "count"},
	{"mapping.wasted_state_frac", "frac"},
	{"mapping.self_s", "s"},
	{"verify.small_call_us", "us"},
	// verify: the local engine on the verify workload's slot set.
	{"verify.seq.set_s", "s"},
	{"verify.auto.set_s", "s"},
	{"verify.s1.seq.states_per_s", "1/s"},
	{"verify.s1.auto.states_per_s", "1/s"},
	{"verify.w10.seq.states_per_s", "1/s"},
	{"verify.w10.auto.states_per_s", "1/s"},
	{"verify.v5.seq.ms", "ms"},
	{"verify.v5.auto.ms", "ms"},
	{"verify.s1.seq.alloc_bytes_per_state", "B"},
	{"verify.s1.auto.alloc_bytes_per_state", "B"},
	{"verify.w10.seq.alloc_bytes_per_state", "B"},
	{"verify.w10.auto.alloc_bytes_per_state", "B"},
	{"verify.auto.cas_retries_per_state", "count"},
	{"verify.auto.probe_steps_per_state", "count"},
	{"verify.auto.steals", "count"},
	// dverify: the loopback mesh and the two-server TCP cluster.
	{"dverify.mesh.set_s", "s"},
	{"dverify.tcp.set_s", "s"},
	{"dverify.s1.mesh.states_per_s", "1/s"},
	{"dverify.s1.tcp.states_per_s", "1/s"},
	{"dverify.w10.mesh.states_per_s", "1/s"},
	{"dverify.w10.tcp.states_per_s", "1/s"},
	{"dverify.v5.mesh.ms", "ms"},
	{"dverify.v5.tcp.ms", "ms"},
	{"dverify.tcp.wire_bytes", "B"},
	{"dverify.tcp.raw_bytes", "B"},
	{"dverify.tcp.saved_frac", "frac"},
	{"dverify.tcp.filtered_frac", "frac"},
	{"dverify.cluster_setup_s", "s"},
	// admit: the admission service under open-loop load.
	{"admit.p50_ms", "ms"},
	{"admit.p99_ms", "ms"},
	{"admit.goodput_rps", "1/s"},
	{"admit.queue_wait_mean_ms", "ms"},
	{"admit.backend_run_mean_ms", "ms"},
	{"admit.hit_frac", "frac"},
	{"admit.hot_us", "us"},
	{"admit.coalesce_frac", "frac"},
	{"admit.backend_runs", "count"},
	{"admit.cold_ms", "ms"},
	{"admit.refused", "count"},
	// runtime and the benchmark itself.
	{"gc.pause_ms", "ms"},
	{"heap.peak_mb", "MB"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_frac", "frac"},
}

var (
	perLayer   []string
	layerUnits = map[string]string{}
)

func init() {
	for _, m := range layerMetrics {
		perLayer = append(perLayer, m[0])
		layerUnits[m[0]] = m[1]
	}
}

package main

// metricDef names one reported metric and its unit. The two lists below
// are the benchmark's contract: BENCHMARK.json at the repository root
// lists the same names and units (the self-test checks that), and every
// workload reports every metric of the list its trace mode selects.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. Every workload runs studies, so each is defined on all
// four; see README.md for what an operation is on each workload.
var endToEnd = []metricDef{
	{"study_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"runs_per_s", "1/s"},
	{"tasks_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
}

// paperSystems are the four systems the paper compares, the suffixes of
// the per-system layer metrics.
var paperSystems = []string{"DCS", "SSP", "DRP", "DawningCloud"}

// perLayer are the metrics of single layers, from the traced pass. A
// layer a workload does not reach reports 0 there.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"scenario.parse_ms", "ms"},
		{"scenario.compile_ms", "ms"},
		{"scenario.compile_alloc_mb", "MB"},
		{"scenario.clone_ms", "ms"},
		{"scenario.render_ms", "ms"},
		{"scenario.json_ms", "ms"},
		{"scenario.report_bytes", "bytes"},
	}
	for _, sys := range paperSystems {
		defs = append(defs,
			metricDef{"systems.attach_ms." + sys, "ms"},
			metricDef{"sim.simulate_ms." + sys, "ms"},
			metricDef{"sim.events." + sys, "count"},
			metricDef{"sim.ns_per_event." + sys, "ns/event"},
			metricDef{"sim.allocs_per_event." + sys, "allocs/event"},
			metricDef{"systems.finalize_ms." + sys, "ms"},
		)
	}
	defs = append(defs,
		metricDef{"api.submit_ms.fresh", "ms"},
		metricDef{"api.submit_ms.cached", "ms"},
		metricDef{"api.events_ms", "ms"},
		metricDef{"api.get_ms", "ms"},
		metricDef{"api.result_bytes", "bytes"},
		metricDef{"service.queue_wait_ms", "ms"},
		metricDef{"service.exec_ms", "ms"},
		metricDef{"service.cache_hit_ratio", "ratio"},
		metricDef{"service.recover_ms", "ms"},
	)
	for _, op := range []string{"submit", "claim", "finish"} {
		defs = append(defs,
			metricDef{"runstore.append_ms." + op + ".p50", "ms"},
			metricDef{"runstore.append_ms." + op + ".max", "ms"},
		)
	}
	return append(defs,
		metricDef{"runstore.finish_bytes", "bytes"},
		metricDef{"runstore.open_ms", "ms"},
		metricDef{"api.ingest_post_ms", "ms"},
		metricDef{"api.ingest_refused_ratio", "ratio"},
		metricDef{"events.window_reports", "count"},
		metricDef{"trace.uncovered_ms", "ms"},
		metricDef{"trace.overhead_ratio", "ratio"},
	)
}()

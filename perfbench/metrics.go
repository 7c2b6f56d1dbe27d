package main

// metricDef declares one reported metric, as BENCHMARK.json lists it.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: allowed worsening, as a share of the median
}

// endToEndDefs are the metrics of an untraced run (--trace 0).
var endToEndDefs = []metricDef{
	{"host_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.05},
	{"live_heap_mb", "MB", "lower", 0.1},
	{"sim_rps", "1/s", "higher", 0.05},
	{"sim_p50_us", "us", "lower", 0.05},
	{"sim_p99_us", "us", "lower", 0.15},
}

// modules are the layers CPU and allocation shares are split into, named
// after the repository's packages (see moduleOf).
var modules = []string{
	"sim", "goruntime", "core", "repl", "rdma", "mqueue", "memdev", "netstack", "fabric",
	"accel", "lenet", "kvstore", "cluster", "trace", "profile", "metrics", "snic",
	"cpuarch", "model", "check", "fault", "bench", "other",
}

// perLayerDefs are the metrics of a traced run (--trace 1).
var perLayerDefs = func() []metricDef {
	defs := []metricDef{
		{name: "sim.events", unit: "count", better: "lower"},
		{name: "sim.ns_per_event", unit: "ns", better: "lower"},
		{name: "goruntime.sched_share", unit: "share", better: "lower"},
		{name: "gc.share", unit: "share", better: "lower"},
		{name: "gc.cycles", unit: "count", better: "lower"},
		{name: "alloc.bytes_per_req", unit: "B", better: "lower"},
		{name: "alloc.objs_per_req", unit: "count", better: "lower"},
		{name: "core.exec_calls_per_req", unit: "count", better: "lower"},
		{name: "core.dropped", unit: "count", better: "lower"},
		{name: "core.retries", unit: "count", better: "lower"},
		{name: "core.snic_cpu_util", unit: "share", better: "lower"},
		{name: "rdma.ops_per_req", unit: "count", better: "lower"},
		{name: "rdma.retry_ratio", unit: "share", better: "lower"},
		{name: "mqueue.pushed", unit: "count", better: "higher"},
		{name: "mqueue.full_ratio", unit: "share", better: "lower"},
		{name: "netstack.rx_dropped", unit: "count", better: "lower"},
		{name: "fabric.transfers_per_req", unit: "count", better: "lower"},
		{name: "fabric.pcie_util", unit: "share", better: "lower"},
		{name: "accel.gpu_busy", unit: "share", better: "higher"},
		{name: "accel.recv_wait_share", unit: "share", better: "lower"},
		{name: "lenet.calls", unit: "count", better: "higher"},
		{name: "lenet.classify_us_p50", unit: "us", better: "lower"},
		{name: "lenet.classify_us_p99", unit: "us", better: "lower"},
		{name: "lenet.repeat_share", unit: "share", better: "higher"},
		{name: "repl.records_per_write", unit: "count", better: "lower"},
		{name: "repl.backlog_ratio", unit: "share", better: "lower"},
		{name: "repl.held", unit: "count", better: "lower"},
		{name: "repl.peer_ack_p99_us", unit: "us", better: "lower"},
		{name: "trace.spans_begun", unit: "count", better: "higher"},
		{name: "trace.evict_ratio", unit: "share", better: "lower"},
		{name: "workload.sent", unit: "count", better: "higher"},
		{name: "workload.lost", unit: "count", better: "lower"},
		{name: "workload.retries", unit: "count", better: "lower"},
		{name: "sim_get_p99_us", unit: "us", better: "lower"},
		{name: "sim_set_p99_us", unit: "us", better: "lower"},
		{name: "sim_p99_samples", unit: "count", better: "higher"},
		{name: "fail_frac", unit: "share", better: "lower"},
		{name: "setup.build_s", unit: "s", better: "lower"},
		{name: "setup.register_s", unit: "s", better: "lower"},
		{name: "setup.launch_s", unit: "s", better: "lower"},
		{name: "setup.start_s", unit: "s", better: "lower"},
		{name: "setup.app_init_s", unit: "s", better: "lower"},
		{name: "bench.trace_overhead", unit: "share", better: "lower"},
		{name: "bench.profile_coverage", unit: "share", better: "higher"},
		{name: "bench.host_wall_s", unit: "s", better: "lower"},
		{name: "bench.ref_s", unit: "s", better: "lower"},
	}
	for _, m := range modules {
		defs = append(defs,
			metricDef{name: m + ".host_share", unit: "share", better: "lower"},
			metricDef{name: m + ".alloc_share", unit: "share", better: "lower"})
	}
	return defs
}()

// metricDefs indexes every declared metric by name.
var metricDefs = func() map[string]metricDef {
	m := map[string]metricDef{}
	for _, d := range append(append([]metricDef(nil), endToEndDefs...), perLayerDefs...) {
		m[d.name] = d
	}
	return m
}()

package main

// layerTargets records, for each per-layer metric, the end-to-end metric
// it should move and the workload it should move it on. A change that
// claims a gain in a layer is expected to show it there.
var layerTargets = map[string]string{
	"server.hit_us":                  "throughput_rps, latency_p50_ms on nltcs-hot",
	"server.miss_ms":                 "latency_p50_ms on nltcs-fresh",
	"server.self_ms":                 "latency_p50_ms on nltcs-fresh",
	"server.resp_kb":                 "throughput_rps on nltcs-hot",
	"http.overhead_us":               "nothing: the control, on nltcs-hot",
	"rescache.hit_ratio":             "throughput_rps on nltcs-hot",
	"server.coalesced":               "throughput_rps on nltcs-fresh",
	"accountant.charges":             "throughput_rps on nltcs-fresh",
	"accountant.epsilon_spent":       "throughput_rps on nltcs-fresh",
	"accountant.charge_us":           "latency_p50_ms on nltcs-fresh",
	"store.ingest_rows_per_s":        "setup_s on every workload",
	"store.append_ms":                "throughput_rps on nltcs-fresh",
	"repro.resolve_ms":               "setup_s on every workload",
	"engine.plan_ms":                 "latency_p50_ms on nltcs-fresh",
	"engine.allocate_ms":             "latency_p50_ms on nltcs-fresh",
	"engine.measure_ms":              "throughput_rps, latency_p50_ms on adult-sweep and nltcs-fresh",
	"engine.recover_ms":              "latency_p50_ms on nltcs-fresh",
	"engine.consist_ms":              "latency_p50_ms on nltcs-fresh",
	"engine.plan_cache_hit_ratio":    "latency_p50_ms on nltcs-fresh",
	"engine.realized_variance_ratio": "realized_rmse on every workload",
	"transform.wht_ms":               "throughput_rps on adult-sweep",
	"transform.wht_gop":              "throughput_rps on adult-sweep",
	"datacube.release_ms":            "latency_p50_ms on nltcs-fresh and adult-sweep",
	"synth.sample_ms":                "latency_tail_ms on nltcs-fresh",
	"process.allocs_per_req":         "throughput_rps on nltcs-hot",
	"process.gc_cpu_fraction":        "throughput_rps on nltcs-hot and nltcs-fresh",
	"process.steal_fraction":         "nothing: the host's interference, which the block medians leave out",
	"trace.coverage":                 "nothing: the trace's own quality",
	"trace.overhead_ratio":           "nothing: the trace's own cost",
}

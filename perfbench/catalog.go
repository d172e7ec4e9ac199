package main

// metricDef is one catalogue entry; BENCHMARK.json lists the same names,
// units and directions (checked by TestCatalogueMatchesBenchmarkJSON).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the compiler or of himapd sees.
// Every workload reports every one of them, over its own operations
// (README.md gives each definition per workload).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"compile_ms", "ms", "lower"},
	{"sweep_s", "s", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"ii_sum", "count", "lower"},
	{"utilization", "ratio", "higher"},
	{"ok_ratio", "ratio", "higher"},
	{"slo_ratio", "ratio", "higher"},
	{"req_ms_p50", "ms", "lower"},
	{"miss_ms_p50", "ms", "lower"},
}

// stages are the HiMap pipeline stages, in pipeline order.
var stages = []string{
	"idfg-map", "scheme-search", "block-derive", "isdg-build", "forward",
	"place", "unique", "route", "replicate", "validate",
}

// perLayer are the metrics of single layers, reported by the traced run.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, s := range stages {
		defs = append(defs, metricDef{"himap.stage." + s + ".ms", "ms", "lower"})
	}
	return append(defs, []metricDef{
		{"himap.attempts.run", "count", "lower"},
		{"himap.attempts.committed", "count", "higher"},
		{"himap.attempts.useful_ratio", "ratio", "higher"},
		{"himap.memo.hit_ratio", "ratio", "higher"},
		{"route.rounds", "count", "lower"},
		{"route.canonical_nets", "count", "lower"},
		{"route.unique_iters", "count", "lower"},
		{"runtime.allocs", "count", "lower"},
		{"runtime.gc_cycles", "count", "lower"},
		{"runtime.gc_pause_ms", "ms", "lower"},
		{"arch.encode_ms", "ms", "lower"},
		{"arch.bitstream_bytes", "bytes", "lower"},
		{"wire.decode_us", "us", "lower"},
		{"wire.encode_ms", "ms", "lower"},
		{"wire.body_kb", "KB", "lower"},
		{"store.put_ms", "ms", "lower"},
		{"store.get_ms", "ms", "lower"},
		{"serve.outcome.hit", "count", "higher"},
		{"serve.outcome.store", "count", "higher"},
		{"serve.outcome.coalesced", "count", "lower"},
		{"serve.outcome.miss", "count", "lower"},
		{"serve.cache.hit_ratio", "ratio", "higher"},
		{"serve.hit_ms_p50", "ms", "lower"},
		{"serve.hit_ms_p99", "ms", "lower"},
		{"serve.miss_ms_p90", "ms", "lower"},
		{"serve.compile_ms", "ms", "lower"},
		{"serve.overhead_ms_p50", "ms", "lower"},
		{"serve.rejected", "count", "lower"},
		{"shard.forwarded_ratio", "ratio", "lower"},
		{"shard.fallbacks", "count", "lower"},
		{"client.late_ms_p99", "ms", "lower"},
		{"sim.validate_ms", "ms", "lower"},
		{"trace.overhead_ms", "ms", "lower"},
		{"bench.ref_ms", "ms", "lower"},
		{"bench.loop_ref_ms", "ms", "lower"},
	}...)
}()

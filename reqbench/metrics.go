package main

// metricDef names one reported metric and its unit. The two lists are the
// benchmark's contract: BENCHMARK.json declares exactly these, and the
// self-test holds the two in step.
type metricDef struct{ name, unit string }

// endToEnd is what an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"req_per_s", "1/s"},
	{"lat_p99_us", "us"},
	{"setup_s", "s"},
	{"alloc_b_per_req", "B"},
	{"heap_mb", "MB"},
	{"p50_us.c", "us"},
	{"p50_us.codegen", "us"},
	{"p50_us.aot", "us"},
	{"p50_us.bytecode", "us"},
	{"p50_us.upcall", "us"},
}

// perLayer is what a traced run reports, on every workload. A layer a
// workload does not run reads 0 there.
var perLayer = []metricDef{
	{"kernel.pager.self_ns", "ns"},
	{"kernel.pager.fault_ratio", "ratio"},
	{"kernel.pager.policy_errors", "count"},
	{"grafts.hotlist.self_ns", "ns"},
	{"grafts.evict.self_ns", "ns"},
	{"grafts.md5.self_ns", "ns"},
	{"grafts.ldmap.self_ns", "ns"},
	{"kernel.stream.self_ns", "ns"},
	{"ld.self_ns", "ns"},
	{"netsim.demux.self_ns", "ns"},
	{"netsim.frames_per_crossing", "frames"},
	{"netsim.fastpath_share", "ratio"},
	{"lifecycle.slot.self_ns", "ns"},
	{"lifecycle.carrier.self_ns", "ns"},
	{"lifecycle.slot.retry_ratio", "ratio"},
	{"lifecycle.stage_ms", "ms"},
	{"lifecycle.promote_us", "us"},
	{"lifecycle.rollback_us", "us"},
	{"lifecycle.rejects", "count"},
	{"tech.graft.self_ns.c", "ns"},
	{"tech.graft.self_ns.codegen", "ns"},
	{"tech.graft.self_ns.aot", "ns"},
	{"tech.graft.self_ns.bytecode", "ns"},
	{"tech.graft.self_ns.domain", "ns"},
	{"tech.graft.self_ns.upcall", "ns"},
	{"tech.graft.calls_per_req.c", "calls"},
	{"tech.graft.calls_per_req.codegen", "calls"},
	{"tech.graft.calls_per_req.aot", "calls"},
	{"tech.graft.calls_per_req.bytecode", "calls"},
	{"tech.graft.calls_per_req.domain", "calls"},
	{"tech.graft.calls_per_req.upcall", "calls"},
	{"tech.load_ms.c", "ms"},
	{"tech.load_ms.codegen", "ms"},
	{"tech.load_ms.aot", "ms"},
	{"tech.load_ms.bytecode", "ms"},
	{"tech.load_ms.domain", "ms"},
	{"tech.load_ms.upcall", "ms"},
	{"upcall.crossing_ns", "ns"},
	{"telemetry.scrape_ms", "ms"},
	{"telemetry.series", "count"},
	{"telemetry.registered", "count"},
	{"telemetry.watchdog_us", "us"},
	{"runtime.gc_per_kreq", "1/kreq"},
	{"runtime.gc_pause_us_per_kreq", "us/kreq"},
	{"trace.overhead", "ratio"},
	{"trace.unattributed_share", "ratio"},
	{"trace.request_ns", "ns"},
}

func isEndToEnd(name string) bool {
	for _, d := range endToEnd {
		if d.name == name {
			return true
		}
	}
	return false
}

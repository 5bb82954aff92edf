package main

// endToEnd lists the metrics a --trace 0 run reports on every workload.
// What each measures per workload is recorded in design.json.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"rss_slice_p50_mb", "MB"},
	{"allocs_per_op", "count"},
	{"bytes_per_op", "B"},
}

// perLayer lists the metrics a --trace 1 run reports on every workload: the
// untraced pipeline's timings, then the layers'. A layer the workload does
// not reach reports 0.
var perLayer = []struct{ name, unit string }{
	{"pipeline.work_per_cpu_s", "1/cpu_s"},
	{"pipeline.latency_p50_ms", "ms"},
	{"pipeline.latency_tail_ms", "ms"},
	{"sim.iter_us", "us"},
	{"sim.allocs_per_iter", "count"},
	{"sim.bytes_per_iter", "B"},
	{"sim.ticks_per_iter", "count"},
	{"harness.fingerprint_us", "us"},
	{"harness.cond_eval_us", "us"},
	{"harness.distinct_states", "count"},
	{"harness.overhead_share", "ratio"},
	{"campaign.cell_ms", "ms"},
	{"campaign.busy_share", "ratio"},
	{"campaign.memo_hit_share", "ratio"},
	{"litmus.parse_us", "us"},
	{"litmus.fingerprint_us", "us"},
	{"analysis.prefilter_us", "us"},
	{"analysis.decided_share", "ratio"},
	{"axiom.prepare_us", "us"},
	{"axiom.enumerate_us_per_exec", "us"},
	{"axiom.allocs_per_exec", "count"},
	{"axiom.visited_share", "ratio"},
	{"cat.eval_us_per_exec", "us"},
	{"cat.allowed_share", "ratio"},
	{"core.judge_us", "us"},
	{"core.judge_ms", "ms"},
	{"core.merge_share", "ratio"},
	{"service.handler_us", "us"},
	{"service.http_overhead_us", "us"},
	{"service.hit_share", "ratio"},
	{"service.compute_share", "ratio"},
	{"service.rejected", "count"},
	{"service.store_bytes", "B"},
	{"bench.self_share", "ratio"},
	{"harness.self_share", "ratio"},
	{"sim.self_share", "ratio"},
	{"litmus.self_share", "ratio"},
	{"axiom.self_share", "ratio"},
	{"cat.self_share", "ratio"},
	{"service.self_share", "ratio"},
	{"trace.overhead_share", "ratio"},
	{"trace.drive_gap_share", "ratio"},
	{"trace.spans", "count"},
}

// finish restricts a report to the metric set of its mode: the
// end-to-end list untraced, the per-layer list traced, with 0 for any
// per-layer metric the workload's layers do not produce.
func (r *report) finish(traced bool) {
	list := endToEnd
	if traced {
		list = perLayer
	}
	out := make(map[string]metric, len(list))
	for _, m := range list {
		v, ok := r.metrics[m.name]
		if !ok {
			v = metric{Value: 0, Unit: m.unit}
		}
		out[m.name] = v
	}
	r.metrics = out
}

package main

import "fmt"

// metricDef names one reported metric. BENCHMARK.json lists the same
// names; a test keeps the two in step.
type metricDef struct {
	name, unit string
	better     string // end-to-end only: "lower" or "higher"
}

// endToEndMetrics are what every untraced run reports, for every
// workload. Throughput in each workload's own unit is per-layer (see
// throughputMetrics): a metric listed here must be reported, and be
// non-zero, on all four workloads.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"alloc_bytes", "bytes", "lower"},
	{"live_heap_bytes", "bytes", "lower"},
}

// Per-call timings are reported as three metrics: the median under the
// base name, ".tail" (the highest of p50/p90/p95/p99/p99.9 with at
// least ten samples beyond it; the report line names which) and ".n",
// the sample count. Rates measured over repeated samples add ".n".
var (
	timingMetrics = []metricDef{
		{"burst.sample_us.low_x", "us", ""},
		{"burst.sample_us.high_x", "us", ""},
		{"burst.eval_us.mlec_cc", "us", ""},
		{"burst.eval_us.mlec_dd", "us", ""},
		{"burst.eval_us.slec_loc_cp", "us", ""},
		{"burst.cell_overhead_ms", "ms", ""},
		{"runctl.pool_roundtrip_us", "us", ""},
		{"placement.new_layout_ms", "ms", ""},
		{"placement.declustered_stripes_ms.fleet", "ms", ""},
		{"placement.declustered_stripes_ms.split", "ms", ""},
		{"poolsim.new_pool_ms", "ms", ""},
		{"poolsim.clone_us", "us", ""},
		{"poolsim.fail_disk_us", "us", ""},
		{"poolsim.next_batch_us.f1", "us", ""},
		{"poolsim.next_batch_us.f2", "us", ""},
		{"poolsim.next_batch_us.f3", "us", ""},
		{"poolsim.next_batch_us.f4", "us", ""},
		{"poolsim.heal_batch_us", "us", ""},
		{"sim.schedule_ns", "ns", ""},
		{"sim.step_ns", "ns", ""},
	}
	rateMetrics = []metricDef{
		{"gf256.mul_add_gbps", "GB/s", ""},
		{"gf256.xor_gbps", "GB/s", ""},
		{"rs.encode_gbps.net", "GB/s", ""},
		{"rs.encode_gbps.local", "GB/s", ""},
		{"rs.reconstruct_gbps.local", "GB/s", ""},
	}
	// throughputMetrics come from a traced run's untraced passes and
	// are 0 on the workloads they do not apply to.
	throughputMetrics = []metricDef{
		{"trials_per_s", "trials/s", ""},
		{"trajectories_per_s", "trajectories/s", ""},
		{"disk_years_per_s", "disk-years/s", ""},
		{"write_mb_per_s", "MB/s", ""},
		{"read_mb_per_s", "MB/s", ""},
		{"degraded_read_mb_per_s", "MB/s", ""},
		{"repair_mb_per_s", "MB/s", ""},
	}
	plainMetrics = []metricDef{
		{"burst.sample_alloc_bytes.low_x", "bytes", ""},
		{"burst.sample_alloc_bytes.high_x", "bytes", ""},
		{"burst.fallback_cell_share", "ratio", ""},
		{"burst.fallback_cell_share.figure", "ratio", ""},
		{"runctl.cores_busy", "cores", ""},
		{"placement.declustered_stripes_alloc_bytes.fleet", "bytes", ""},
		{"placement.declustered_stripes_alloc_bytes.split", "bytes", ""},
		{"poolsim.new_pool_alloc_bytes", "bytes", ""},
		{"poolsim.rel_ci_halfwidth.cp", "ratio", ""},
		{"poolsim.rel_ci_halfwidth.dp", "ratio", ""},
		// syssim.New takes about a second per scheme, so it gets a
		// median of a few calls and one shared count.
		{"syssim.new_s.cc", "s", ""},
		{"syssim.new_s.cd", "s", ""},
		{"syssim.new_s.dc", "s", ""},
		{"syssim.new_s.dd", "s", ""},
		{"syssim.new_s.n", "count", ""},
		{"syssim.events", "count", ""},
		{"syssim.events_per_s", "1/s", ""},
		{"cluster.write_alloc_bytes_per_byte", "ratio", ""},
		{"cluster.codec_share.write", "ratio", ""},
		{"objectio.bytes.write", "bytes", ""},
		{"objectio.bytes.read", "bytes", ""},
		{"objectio.bytes.degraded_read", "bytes", ""},
		{"objectio.bytes.repair", "bytes", ""},
		{"runtime.gc_cycles", "count", ""},
		{"runtime.gc_cpu_s", "s", ""},
		{"runtime.peak_rss_bytes", "bytes", ""},
		{"host.steal_share", "ratio", ""},
		{"obs.trace_overhead_s", "s", ""},
	}
)

// perLayerMetrics is every metric a traced run reports.
var perLayerMetrics = func() []metricDef {
	var out []metricDef
	for _, d := range timingMetrics {
		out = append(out, d, metricDef{d.name + ".tail", d.unit, ""}, metricDef{d.name + ".n", "count", ""})
	}
	for _, d := range rateMetrics {
		out = append(out, d, metricDef{d.name + ".n", "count", ""})
	}
	out = append(out, throughputMetrics...)
	out = append(out, plainMetrics...)
	for _, kind := range []string{"cp", "dp"} {
		for l := 1; l <= splitLevels; l++ {
			out = append(out, metricDef{fmt.Sprintf("poolsim.level_up_share.%s.l%d", kind, l), "ratio", ""})
		}
	}
	for _, mod := range cpuModules {
		out = append(out, metricDef{"cpu_share." + mod, "ratio", ""})
	}
	return out
}()

// timing records per-call samples as median, tail and count.
func (m metricSet) timing(tr *tracer, name, unit string, samples []float64) {
	if tr != nil {
		tr.samples[name] = append(tr.samples[name], samples...)
	}
	_, t := tail(samples)
	m.put(name, unit, median(samples))
	m.put(name+".tail", unit, t)
	m.put(name+".n", "count", float64(len(samples)))
}

// rate records the median of repeated rate samples and their count.
func (m metricSet) rate(tr *tracer, name, unit string, samples []float64) {
	if tr != nil {
		tr.samples[name] = append(tr.samples[name], samples...)
	}
	m.put(name, unit, median(samples))
	m.put(name+".n", "count", float64(len(samples)))
}

package main

import (
	"gapbench/internal/core"
	"gapbench/internal/generate"
)

// metricDef names one reported metric and its unit. BENCHMARK.json at the
// repository root lists the same names and units (metrics_test.go checks).
type metricDef struct {
	Name, Unit string
}

// endToEnd are the metrics a user of the suite or of gapd sees, reported by
// every workload with tracing off. Each is defined on every workload (the
// per-workload meaning is in README.md); the suite's own wall time and each
// workload's failed share are printed in the human table, and failures are
// also the result line's attempted/failed counts.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"qps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"kernel_geomean_ms", "ms"},
	{"server_cpu_ms_per_query", "ms"},
	{"peak_rss_mb", "MiB"},
}

// servedKernels are the kernels gapd answers, in the order its protocol
// lists them.
var servedKernels = []string{"BFS", "SSSP", "PR", "CC"}

// perLayer are the metrics of the traced run, named by module. Every
// workload reports all of them; a layer the workload does not exercise
// reads 0.
func perLayer() []metricDef {
	var defs []metricDef
	add := func(name, unit string) { defs = append(defs, metricDef{name, unit}) }
	for _, g := range generate.Names {
		add("generate.ms."+g, "ms")
	}
	add("core.prepare_input_ms", "ms")
	add("core.prepare_views_ms", "ms")
	add("graph.mmap_load_ms", "ms")
	for _, k := range core.Kernels {
		add("core.harness_ms."+string(k), "ms")
	}
	for _, f := range core.FrameworkNames() {
		for _, k := range core.Kernels {
			add("kernel_ms."+f+"."+string(k), "ms")
		}
	}
	for _, k := range core.Kernels {
		for _, g := range generate.Names {
			add("kernel_ms."+string(k)+"."+g, "ms")
		}
	}
	for _, g := range generate.Names {
		add("par.regions."+g, "count")
	}
	for _, k := range servedKernels {
		add("serve.rtt_p50_us."+k, "us")
		add("serve.rtt_p99_us."+k, "us")
		add("serve.kernel_p50_us."+k, "us")
		add("serve.inserver_p50_us."+k, "us")
		add("serve.outside_p50_us."+k, "us")
	}
	for _, c := range []string{"shed", "retries", "timeouts", "panics", "abandoned"} {
		add("serve."+c, "count")
	}
	add("serve.cpu_s", "s")
	add("driver.cpu_s", "s")
	add("driver.send_late_p50_us", "us")
	add("driver.send_late_p99_us", "us")
	add("trace.overhead_pct", "%")
	return defs
}

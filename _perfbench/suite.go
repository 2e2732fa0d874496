package main

import (
	"fmt"
	"time"

	"gapbench/internal/core"
	"gapbench/internal/generate"
	"gapbench/internal/kernel"
)

// suiteScale is the base scale of the suite workload: DefaultSuite(12), the
// 180 cells of Tables IV/V with verification on.
const suiteScale = 12

// setupReps is how many times a run sets up, so setup_s is a median.
const setupReps = 7

// suiteSpecs is DefaultSuite(suiteScale) with graph and source seeds drawn
// from the workload seed.
func suiteSpecs(seed uint64) []core.GraphSpec {
	specs := core.DefaultSuite(suiteScale)
	for i := range specs {
		specs[i].Seed = derive(seed, "suite-graph", i)
		specs[i].SourceSeed = derive(seed, "suite-sources", i)
	}
	return specs
}

// suiteSetup generates and prepares the five graphs (what core.LoadInput
// does, split so each layer gets its own span) and warms every framework's
// views (core.PrepareViews).
func suiteSetup(specs []core.GraphSpec, frameworks []kernel.Framework, tr *tracer) ([]*core.Input, time.Duration, error) {
	start := time.Now()
	root := tr.begin("suite.setup", 0, 0)
	defer tr.end(root)
	var inputs []*core.Input
	for _, spec := range specs {
		sp := tr.begin("generate."+spec.Name, root, 0)
		g, err := generate.ByName(spec.Name, spec.Scale, spec.Seed)
		tr.end(sp)
		if err != nil {
			closeInputs(inputs)
			return nil, 0, fmt.Errorf("generating %s: %w", spec.Name, err)
		}
		sp = tr.begin("core.prepare_input."+spec.Name, root, 0)
		inputs = append(inputs, core.PrepareInput(spec, g))
		tr.end(sp)
	}
	sp := tr.begin("core.prepare_views", root, 0)
	core.PrepareViews(frameworks, inputs)
	tr.end(sp)
	return inputs, time.Since(start), nil
}

func closeInputs(inputs []*core.Input) {
	for _, in := range inputs {
		_ = in.Close() // generated heap graphs: Close only drops references
	}
}

// runSuite measures the suite workload: set up setupReps times (setup_s is
// the median), then run whole passes of the 180 cells until the window has
// passed, at least one.
func runSuite(cfg config, tr *tracer) (*outcome, error) {
	out := newOutcome()
	specs := suiteSpecs(cfg.seed)
	var inputs []*core.Input
	var frameworks []kernel.Framework
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		closeInputs(inputs)
		frameworks = core.Frameworks()
		var d time.Duration
		var err error
		inputs, d, err = suiteSetup(specs, frameworks, tr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer closeInputs(inputs)

	r := core.NewRunner() // Baseline workers, 3 trials, verification on
	defer r.Close()

	var cellMS, kernelMS []float64
	var passes []float64
	type cellKey struct{ fw, k, g string }
	best := map[cellKey][]float64{}     // best-trial ms per cell, one per pass
	regions := map[string]float64{}     // par regions per graph, all passes
	cellKernel := map[int]core.Kernel{} // cell span ID -> its kernel
	cpu0 := cpuSelf()
	start := time.Now()
	for len(passes) == 0 || time.Since(start) < cfg.seconds {
		passStart := time.Now()
		pass := tr.begin("suite.pass", 0, 0)
		for _, in := range inputs {
			for _, k := range core.Kernels {
				for _, f := range frameworks {
					cell := tr.begin("cell", pass, 0)
					t0 := time.Now()
					res := r.RunCell(f, k, in, kernel.Baseline)
					cellMS = append(cellMS, float64(time.Since(t0))/1e6)
					tr.end(cell)
					out.attempted++
					if tr != nil {
						// The trials are children of known length: the
						// cell's self time is the sandbox and oracle work.
						cellKernel[cell] = k
						at := tr.spans[cell-1].Start
						for _, rec := range res.TrialRecords {
							d := int64(rec.Seconds * 1e9)
							tr.add("trial", cell, 0, at, at+d, true)
							at += d
						}
					}
					if res.Status != core.OK {
						out.failed++
						out.problem("cell %s: %s: %s", res.CellID(), res.Status, res.Err)
						continue
					}
					kernelMS = append(kernelMS, res.Seconds*1e3)
					key := cellKey{res.Framework, string(k), in.Spec.Name}
					best[key] = append(best[key], res.Seconds*1e3)
					regions[in.Spec.Name] += float64(res.Sync.Regions)
				}
			}
		}
		tr.end(pass)
		passes = append(passes, time.Since(passStart).Seconds())
	}
	wall := time.Since(start)
	cpu := cpuSelf() - cpu0

	lat := summarize(cellMS)
	out.e2e["setup_s"] = median(setups)
	out.e2e["qps"] = float64(out.attempted-out.failed) / wall.Seconds()
	out.e2e["latency_p50_ms"] = lat.P50
	out.e2e["latency_p95_ms"] = lat.P95
	out.e2e["kernel_geomean_ms"] = geomean(kernelMS)
	out.e2e["server_cpu_ms_per_query"] = float64(cpu) / 1e6 / float64(out.attempted)
	out.e2e["peak_rss_mb"] = peakRSSSelfMiB()
	out.note("suite_wall_s %.6f s (median of %d pass(es) of %d cells, verification included)",
		median(passes), len(passes), len(inputs)*len(core.Kernels)*len(frameworks))
	out.note("latency (per-cell wall): %s", lat)
	out.note("setup_s: median of %d setups %v", len(setups), setups)
	if tr == nil {
		return out, nil
	}

	// Per-layer figures: setup layers are span lengths (medians over the
	// setup repeats), the harness is the cells' self time, kernels and
	// regions are what the runner returned.
	byName := tr.msByName()
	for _, spec := range specs {
		out.layers["generate.ms."+spec.Name] = median(byName["generate."+spec.Name])
		out.layers["core.prepare_input_ms"] += median(byName["core.prepare_input."+spec.Name])
	}
	out.layers["core.prepare_views_ms"] = median(byName["core.prepare_views"])
	for id, self := range selfTimes(tr.spans) {
		if k, ok := cellKernel[id]; ok {
			out.layers["core.harness_ms."+string(k)] += float64(self) / 1e6 / float64(len(passes))
		}
	}
	perFK := map[[2]string][]float64{}
	perKG := map[[2]string][]float64{}
	for key, ms := range best {
		m := median(ms)
		perFK[[2]string{key.fw, key.k}] = append(perFK[[2]string{key.fw, key.k}], m)
		perKG[[2]string{key.k, key.g}] = append(perKG[[2]string{key.k, key.g}], m)
	}
	for key, ms := range perFK {
		out.layers["kernel_ms."+key[0]+"."+key[1]] = geomean(ms)
	}
	for key, ms := range perKG {
		out.layers["kernel_ms."+key[0]+"."+key[1]] = geomean(ms)
	}
	for g, n := range regions {
		out.layers["par.regions."+g] = n / float64(len(passes))
	}
	out.layers["driver.cpu_s"] = cpu.Seconds()
	return out, nil
}

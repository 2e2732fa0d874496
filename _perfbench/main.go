// Command perfbench is the repository's benchmark. It measures the GAP suite
// run in-process and queries served by the gapd daemon, from outside the
// program: it times calls into the public functions of generate, core and
// graph, and round trips on gapd's wire protocol, and reads the numbers the
// program already returns (trial seconds, sync counts, a response's micros
// and kernel_micros, the stats op). It checks every output.
//
//	bash _perfbench/run.sh --workload suite --seed 1 --seconds 15 --trace 0
//
// run.sh builds this command and cmd/gapd from the checkout and runs it from
// the repository root. The last line of standard output is one JSON object:
// correct, attempted, failed and the metrics — the end-to-end ones with
// --trace 0, the per-layer ones with --trace 1. A wrong answer, a non-OK or
// missing served reply, a non-OK suite cell or a client/daemon accounting
// mismatch prints correct=false and exits 1. See README.md for the workloads and what each metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	gapd     string // daemon binary
	workdir  string // scratch space inside the checkout
}

// outcome is one measurement of a workload.
type outcome struct {
	attempted, failed int64
	// problems are the failures that make the run incorrect: wrong answers,
	// non-OK or missing replies, non-OK suite cells, accounting mismatches.
	problems []string
	e2e      map[string]float64
	layers   map[string]float64
	// notes are extra human-readable lines: sample counts, supported
	// percentiles, and the workload-specific end-to-end figures.
	notes []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its measurement. A nil tracer means
// the untraced end-to-end run.
var workloads = map[string]func(cfg config, tr *tracer) (*outcome, error){
	"suite":      runSuite,
	"serve-mix":  func(cfg config, tr *tracer) (*outcome, error) { return runServe(cfg, serveMix, tr) },
	"serve-open": func(cfg config, tr *tracer) (*outcome, error) { return runServe(cfg, serveOpen, tr) },
}

func main() {
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: suite, serve-mix or serve-open")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: graphs, sources, kernel mix and arrival times derive from it")
	flag.IntVar(&seconds, "seconds", 15, "length of the timed window in seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	flag.StringVar(&cfg.gapd, "gapd", ".bench_build/bin/gapd", "gapd binary built from this checkout")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for graph caches, sockets and traces")
	flag.Parse()
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	measure, ok := workloads[cfg.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload suite|serve-mix|serve-open, --seconds ≥ 1, --trace 0|1\n")
		os.Exit(2)
	}
	if err := run(cfg, measure); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config, measure func(config, *tracer) (*outcome, error)) error {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return err
	}
	out, err := measure(cfg, nil)
	if err != nil {
		return err
	}
	metrics, defs := out.e2e, endToEnd
	if cfg.trace {
		// The traced run repeats the measurement with spans on; its
		// end-to-end figures against the untraced ones are the tracing
		// overhead.
		tr := newTracer()
		traced, err := measure(cfg, tr)
		if err != nil {
			return err
		}
		path := filepath.Join(cfg.workdir, fmt.Sprintf("trace-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := tr.write(path); err != nil {
			return err
		}
		printTable("untraced", out.e2e)
		out.note("trace: %d spans written to %s", len(tr.spans), path)
		traced.layers["trace.overhead_pct"] = 100 * (traced.e2e["latency_p50_ms"]/out.e2e["latency_p50_ms"] - 1)
		traced.attempted += out.attempted
		traced.failed += out.failed
		traced.problems = append(out.problems, traced.problems...)
		traced.notes = append(out.notes, traced.notes...)
		out = traced
		metrics, defs = traced.layers, perLayer()
		printTable("traced", traced.e2e)
	} else {
		printTable("end-to-end", out.e2e)
	}
	for _, n := range out.notes {
		fmt.Println(n)
	}
	const maxShown = 20
	for i, p := range out.problems {
		if i == maxShown {
			fmt.Printf("FAIL: ... and %d more\n", len(out.problems)-maxShown)
			break
		}
		fmt.Println("FAIL:", p)
	}
	if out.attempted > 0 {
		fmt.Printf("failed_share %.6f ratio (%d of %d)\n", float64(out.failed)/float64(out.attempted), out.failed, out.attempted)
	}

	line := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{Correct: len(out.problems) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricJSON{}}
	for _, d := range defs {
		v := metrics[d.Name] // 0 for a layer this workload does not exercise
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v)
		}
		line.Metrics[d.Name] = metricJSON{Value: v, Unit: d.Unit}
	}
	for name := range metrics {
		if _, ok := line.Metrics[name]; !ok {
			return fmt.Errorf("measured metric %s is not declared", name)
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !line.Correct {
		os.Exit(1)
	}
	return nil
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printTable prints the end-to-end metrics by name with their units.
func printTable(title string, e2e map[string]float64) {
	fmt.Printf("== %s\n", title)
	for _, d := range endToEnd {
		fmt.Printf("%-26s %14.6f %s\n", d.Name, e2e[d.Name], d.Unit)
	}
}

// splitmix64 derives independent, reproducible streams from the workload
// seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// derive is the seed of stream (label, i) of the workload seed.
func derive(seed uint64, label string, i int) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range []byte(label) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return splitmix64(splitmix64(seed^h) + uint64(i))
}

// cpuSelf is this process's user+system CPU time.
func cpuSelf() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSSelfMiB is this process's peak resident set.
func peakRSSSelfMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"gapbench/internal/core"
	"gapbench/internal/generate"
	"gapbench/internal/serve"
)

// serveWorkload is one traffic mix against gapd.
type serveWorkload struct {
	name string
	// mix is the kernel mix as relative weights.
	mix []kernelWeight
	// zipf is the source-vertex skew exponent; 0 draws sources uniformly.
	zipf float64
	// rate is the total Poisson arrival rate in queries per second, split
	// evenly over the connections; 0 runs a closed loop.
	rate float64
}

type kernelWeight struct {
	kernel string
	weight float64
}

// openRate is serve-open's fixed arrival rate, about a third of what
// cmd/workload's 2-client closed loop completes on this mix on 2 cores at the
// commit that introduced this benchmark (README.md gives the measurements and
// why not half). It is a constant so the offered load never moves with the
// change under test.
const openRate = 700

var (
	serveMix = serveWorkload{
		name: "serve-mix",
		mix:  []kernelWeight{{"BFS", 4}, {"SSSP", 2}, {"PR", 2}, {"CC", 2}}, // gapd's default mix
		zipf: 1.3,
	}
	serveOpen = serveWorkload{
		name: "serve-open",
		mix:  []kernelWeight{{"BFS", 1}, {"SSSP", 1}},
		rate: openRate,
	}
)

const (
	// serveScale is the base scale of the served graphs.
	serveScale = 10
	// serveConns is the number of client connections: one per core.
	serveConns = 2
	// warmup is the untimed load phase before the timed window: a fresh
	// daemon serves measurably slower for its first seconds.
	warmup = 3 * time.Second
	// spawnReps is how many daemons a run starts, so setup_s is a median;
	// the last one serves the load.
	spawnReps = 11
	// replyWait is how long after the last send a query may still be
	// answered before it counts as unanswered.
	replyWait = 10 * time.Second
)

// query is one served request with its client-side stamps, as offsets from
// the start of its phase.
type query struct {
	graph    int // index into the served inputs
	req      serve.Request
	due      time.Duration // open loop: when it should have been sent
	sent     time.Duration
	recv     time.Duration
	sendErr  error
	resp     serve.Response
	answered bool
	wrong    string // why the answer is wrong, after checking
	queryID  int64
}

func (q *query) ok() bool { return q.answered && q.resp.Code == serve.CodeOK && q.wrong == "" }

// phase is one load phase: its queries and the daemon counters around it.
type phase struct {
	queries       []*query
	start         time.Time
	before, after serve.Stats
}

// runServe measures one serving workload: fill the graph cache, start the
// daemon spawnReps times (setup_s), warm it up, then load it for the window
// and check every answer.
func runServe(cfg config, w serveWorkload, tr *tracer) (*outcome, error) {
	out := newOutcome()
	dir, err := os.MkdirTemp(cfg.workdir, "serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	inputs, files, err := fillCache(cfg.seed, dir, tr)
	if err != nil {
		return nil, err
	}
	defer closeInputs(inputs)

	// A relative socket path keeps it short whatever the checkout's path;
	// the daemon inherits this process's working directory.
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	sock, err := filepath.Rel(wd, filepath.Join(dir, "gapd.sock"))
	if err != nil {
		return nil, err
	}
	var d *daemon
	var setups []float64
	for rep := 0; rep < spawnReps; rep++ {
		sp := tr.begin("gapd.spawn_to_ping", 0, 0)
		var took time.Duration
		d, took, err = spawnDaemon(cfg.gapd, sock, files)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if rep < spawnReps-1 {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
	}
	defer func() {
		if err := d.stop(); err != nil {
			out.problem("%v", err)
		}
	}()
	if err := checkGraphs(sock, inputs); err != nil {
		return nil, err
	}

	warm, err := drive(sock, w, inputs, derive(cfg.seed, w.name+"-warmup", 0), warmup)
	if err != nil {
		return nil, err
	}
	cpuD0, err := procCPU(d.pid())
	if err != nil {
		return nil, err
	}
	cpu0 := cpuSelf()
	timedSpan := tr.begin("serve.timed", 0, 0)
	timed, err := drive(sock, w, inputs, derive(cfg.seed, w.name+"-timed", 0), cfg.seconds)
	tr.end(timedSpan)
	if err != nil {
		return nil, err
	}
	cpuD1, err := procCPU(d.pid())
	if err != nil {
		return nil, err
	}
	clientCPU := cpuSelf() - cpu0
	daemonCPU := cpuD1 - cpuD0
	rss, err := procPeakRSSMiB(d.pid())
	if err != nil {
		return nil, err
	}

	// Untimed: check every answer and the client's counts against the
	// daemon's, for both phases.
	oracles := newOracles(inputs)
	for i, ph := range []*phase{warm, timed} {
		name := []string{"warm-up", "timed"}[i]
		reconcile(out, name, ph)
		oracles.checkAll(ph.queries)
		// With serveConns serial connections the daemon's default queue
		// cannot fill, so nothing here is shed by design: every non-OK or
		// missing reply is a fault, not load.
		for _, q := range ph.queries {
			out.attempted++
			switch {
			case !q.answered:
				out.problem("%s phase: no reply to %s", name, requestString(q.req))
			case q.resp.Code != serve.CodeOK:
				out.problem("%s phase: %s answered %s: %s", name, requestString(q.req), q.resp.Code, q.resp.Error)
			case q.wrong != "":
				out.problem("%s phase: wrong answer to %s: %s", name, requestString(q.req), q.wrong)
			}
			if !q.ok() {
				out.failed++
			}
		}
	}

	var lat, kernelMS []float64
	window := newSlicer(cfg.seconds)
	codes := map[serve.Code]int{}
	unanswered := 0
	for _, q := range timed.queries {
		switch {
		case !q.answered:
			unanswered++
			continue
		case !q.ok():
			codes[q.resp.Code]++
			continue
		}
		from := q.sent
		if w.rate > 0 {
			from = q.due
		}
		ms := float64(q.recv-from) / 1e6
		lat = append(lat, ms)
		window.add(from, ms)
		kernelMS = append(kernelMS, float64(max(q.resp.KernelMicros, 1))/1e3) // micros truncate: clamp to 1 µs
	}
	ls := summarize(lat)
	okCount := float64(len(lat))
	out.e2e["setup_s"] = median(setups)
	out.e2e["qps"] = median(window.each(func(ms []float64) float64 { return float64(len(ms)) / window.length.Seconds() }))
	out.e2e["latency_p50_ms"] = lowest(window.each(func(ms []float64) float64 { return summarize(ms).P50 }))
	out.e2e["latency_p95_ms"] = lowest(window.each(func(ms []float64) float64 { return summarize(ms).P95 }))
	out.e2e["kernel_geomean_ms"] = geomean(kernelMS)
	out.e2e["server_cpu_ms_per_query"] = float64(daemonCPU) / 1e6 / okCount
	out.e2e["peak_rss_mb"] = rss
	loop := "closed loop"
	if w.rate > 0 {
		loop = fmt.Sprintf("open loop, Poisson %d/s offered, latency from due time", int(w.rate))
	}
	out.note("%s: %d connections, %s; timed %v after %v warm-up", w.name, serveConns, loop, cfg.seconds, warmup)
	out.note("latency over the whole window, OK queries: %s; over %d slices of %v, qps is the median slice's and latency_* the lowest slice's",
		ls, len(window.buckets), window.length)
	out.note("timed phase: %d sent, %d OK, %d unanswered, non-OK codes %v", len(timed.queries), len(lat), unanswered, codes)
	out.note("cpu over the timed window: daemon %.3f s, benchmark %.3f s", daemonCPU.Seconds(), clientCPU.Seconds())
	out.note("setup_s: median of %d spawn-to-first-ping times %v", len(setups), setups)
	if tr == nil {
		return out, nil
	}

	// Per-layer figures.
	type split struct{ rtt, kernel, inserver, outside []float64 }
	splits := map[string]*split{}
	byQuery := splitQueries(tr, timedSpan, timed)
	for _, q := range timed.queries {
		if !q.ok() {
			continue
		}
		parts := byQuery[q.queryID]
		rtt := (q.recv - q.sent).Nanoseconds()
		if diff := parts[0] + parts[1] + parts[2] - rtt; diff > 1000 || diff < -1000 {
			out.problem("query %d: outside %d + in-server %d + kernel %d ns != round trip %d ns", q.queryID, parts[0], parts[1], parts[2], rtt)
		}
		sp := splits[q.req.Kernel]
		if sp == nil {
			sp = &split{}
			splits[q.req.Kernel] = sp
		}
		sp.rtt = append(sp.rtt, float64(rtt)/1e3)
		sp.outside = append(sp.outside, float64(parts[0])/1e3)
		sp.inserver = append(sp.inserver, float64(parts[1])/1e3)
		sp.kernel = append(sp.kernel, float64(parts[2])/1e3)
	}
	for k, sp := range splits {
		rtt := summarize(sp.rtt)
		out.layers["serve.rtt_p50_us."+k] = rtt.P50
		out.layers["serve.rtt_p99_us."+k] = rtt.P99
		out.layers["serve.kernel_p50_us."+k] = median(sp.kernel)
		out.layers["serve.inserver_p50_us."+k] = median(sp.inserver)
		out.layers["serve.outside_p50_us."+k] = median(sp.outside)
	}
	byName := tr.msByName()
	for _, g := range generate.Names {
		out.layers["generate.ms."+g] = median(byName["generate."+g])
		out.layers["graph.mmap_load_ms"] += median(byName["graph.mmap_load."+g])
	}
	b, a := timed.before, timed.after
	out.layers["serve.shed"] = float64(shed(a) - shed(b))
	out.layers["serve.retries"] = float64(a.Retries - b.Retries)
	out.layers["serve.timeouts"] = float64(a.Timeouts - b.Timeouts)
	out.layers["serve.panics"] = float64(a.Panics - b.Panics)
	out.layers["serve.abandoned"] = float64(a.Abandoned - b.Abandoned)
	out.layers["serve.cpu_s"] = daemonCPU.Seconds()
	out.layers["driver.cpu_s"] = clientCPU.Seconds()
	if w.rate > 0 {
		var late []float64
		for _, q := range timed.queries {
			if q.sendErr == nil {
				late = append(late, float64(q.sent-q.due)/1e3)
			}
		}
		ll := summarize(late)
		out.layers["driver.send_late_p50_us"] = ll.P50
		out.layers["driver.send_late_p99_us"] = ll.P99
	}
	return out, nil
}

// sliceLen is the length of the slices a serving window is cut into. qps is
// the median over the slices. A latency percentile is the lowest over the
// slices — the best-of-trials convention of the suite's kernel times, one
// slice being one trial: on a shared host, interference from outside the
// benchmark only adds latency and can last the whole of a run, so the least
// disturbed slice is the steadiest estimate of the program's own latency,
// while a change that slows every query raises every slice. A slice at
// serve-open's rate holds about 700 queries, 35 beyond its p95.
const sliceLen = time.Second

// slicer buckets per-query values by the slice their reference time falls
// in; queries after the last whole slice are left out.
type slicer struct {
	length  time.Duration
	buckets [][]float64
}

// newSlicer cuts a window into slices of sliceLen, or into one slice when
// the window is shorter.
func newSlicer(window time.Duration) *slicer {
	length := min(sliceLen, window)
	return &slicer{length: length, buckets: make([][]float64, window/length)}
}

func (s *slicer) add(at time.Duration, v float64) {
	if i := int(at / s.length); i < len(s.buckets) {
		s.buckets[i] = append(s.buckets[i], v)
	}
}

// each reduces every non-empty slice, in order.
func (s *slicer) each(reduce func([]float64) float64) []float64 {
	var per []float64
	for _, b := range s.buckets {
		if len(b) > 0 {
			per = append(per, reduce(b))
		}
	}
	return per
}

// splitQueries records each OK query of a phase as a span from send to
// receipt, with the server's micros nested in it and the kernel's micros
// nested in that. Their self times split the round trip into outside (codec
// and socket on both sides), in-server (plan, admission, lease wait, retries,
// reduction) and kernel time, returned per query ID in that order.
func splitQueries(tr *tracer, parent int, ph *phase) map[int64][3]int64 {
	start := tr.ns(ph.start)
	for _, q := range ph.queries {
		if !q.ok() {
			continue
		}
		id := tr.add("query", parent, q.queryID, start+q.sent.Nanoseconds(), start+q.recv.Nanoseconds(), false)
		srv := tr.nest("server", id, q.queryID, q.resp.Micros*1000)
		tr.nest("kernel", srv, q.queryID, q.resp.KernelMicros*1000)
	}
	self := selfTimes(tr.spans)
	part := map[string]int{"query": 0, "server": 1, "kernel": 2}
	byQuery := map[int64][3]int64{}
	for _, s := range tr.spans {
		if s.Query == 0 {
			continue
		}
		parts := byQuery[s.Query]
		parts[part[s.Name]] = self[s.ID]
		byQuery[s.Query] = parts
	}
	return byQuery
}

// fillCache generates the five served graphs from the workload seed into a
// graph cache (format v2), then mmap-loads them back with
// core.LoadCachedInput — the same files the daemon serves, so the answer
// checks run on the same graphs.
func fillCache(seed uint64, dir string, tr *tracer) ([]*core.Input, []string, error) {
	specs := core.DefaultSuite(serveScale)
	var inputs []*core.Input
	var files []string
	for i, spec := range specs {
		spec.Seed = derive(seed, "serve-graph", i)
		sp := tr.begin("generate."+spec.Name, 0, 0)
		g, err := generate.ByName(spec.Name, spec.Scale, spec.Seed)
		tr.end(sp)
		if err != nil {
			closeInputs(inputs)
			return nil, nil, fmt.Errorf("generating %s: %w", spec.Name, err)
		}
		g.SetProvenance(spec.Name, uint32(spec.Scale), spec.Seed)
		path := filepath.Join(dir, core.GraphFileName(spec, "sg"))
		if err := g.SaveSG(path); err != nil {
			closeInputs(inputs)
			return nil, nil, fmt.Errorf("caching %s: %w", spec.Name, err)
		}
		sp = tr.begin("graph.mmap_load."+spec.Name, 0, 0)
		in, err := core.LoadCachedInput(spec, dir)
		tr.end(sp)
		if err != nil {
			closeInputs(inputs)
			return nil, nil, err
		}
		if in.File != path {
			closeInputs(append(inputs, in))
			return nil, nil, fmt.Errorf("%s: loaded %s, want the cached %s", spec.Name, in.File, path)
		}
		inputs = append(inputs, in)
		files = append(files, path)
	}
	return inputs, files, nil
}

// reconcile checks the client's counts against the daemon's over a phase:
// every request sent was either accepted or shed, and every OK the client
// saw the daemon counted.
func reconcile(out *outcome, name string, ph *phase) {
	var sent, ok int64
	for _, q := range ph.queries {
		if q.sendErr == nil {
			sent++
		}
		if q.answered && q.resp.Code == serve.CodeOK {
			ok++
		}
	}
	b, a := ph.before, ph.after
	if d := (a.Accepted - b.Accepted) + (shed(a) - shed(b)); d != sent {
		out.problem("%s phase: client sent %d queries, daemon accepted+shed %d", name, sent, d)
	}
	if d := a.OK - b.OK; d != ok {
		out.problem("%s phase: client got %d OK replies, daemon counted %d", name, ok, d)
	}
}

func shed(s serve.Stats) int64 { return s.ShedRate + s.ShedQueue + s.BreakerShed + s.DrainShed }

func requestString(r serve.Request) string {
	b, _ := json.Marshal(r) // a Request always marshals
	return string(b)
}

func daemonStats(sock string) (serve.Stats, error) {
	resp, err := call(sock, serve.Request{Op: serve.OpStats})
	if err != nil {
		return serve.Stats{}, fmt.Errorf("stats: %w", err)
	}
	if resp.Code != serve.CodeOK || resp.Stats == nil {
		return serve.Stats{}, fmt.Errorf("stats: %s %s", resp.Code, resp.Error)
	}
	return *resp.Stats, nil
}

// checkGraphs confirms the daemon serves exactly the cached graphs.
func checkGraphs(sock string, inputs []*core.Input) error {
	resp, err := call(sock, serve.Request{Op: serve.OpGraphs})
	if err != nil {
		return fmt.Errorf("graphs: %w", err)
	}
	served := map[string]serve.GraphInfo{}
	for _, g := range resp.Graphs {
		served[g.Name] = g
	}
	for _, in := range inputs {
		g, ok := served[in.Spec.Name]
		if !ok || g.Nodes != int64(in.Graph.NumNodes()) || g.Edges != in.Graph.NumEdges() {
			return fmt.Errorf("daemon serves %+v for %s, want %d nodes, %d edges", g, in.Spec.Name, in.Graph.NumNodes(), in.Graph.NumEdges())
		}
	}
	return nil
}

package serve

// query.go executes one admitted query: validate, thread the deadline budget
// into a chained cancel token, answer PR and CC from their per-epoch
// snapshot when one is published (snapshot.go), otherwise lease a machine,
// run the kernel sandboxed (panic recovery, graphguard seal checks,
// grace-bounded abandonment), retry transient failures with backoff, and
// report the outcome in the Status taxonomy — to the client as a Code, to
// the breaker as a health event, and (optionally) to the suite journal as a
// core.Result.

import (
	"fmt"
	"strings"
	"time"

	"gapbench/internal/core"
	"gapbench/internal/graph"
	"gapbench/internal/kernel"
	"gapbench/internal/par"
)

// queryPlan is a validated query request, ready to execute.
type queryPlan struct {
	req    Request
	in     *core.Input
	f      kernel.Framework
	fwName string
	k      core.Kernel
	src    graph.NodeID
	target graph.NodeID
	vertex graph.NodeID
	topk   int
	budget time.Duration
	seed   uint64 // per-query jitter stream
}

// name identifies the query in messages, like a suite cell ("GAP BFS on
// Kron").
func (p *queryPlan) name() string {
	return p.fwName + " " + string(p.k) + " on " + p.in.Spec.Name
}

// servedKernels are the query kernels gapd exposes: the point-query shapes
// of the suite (BFS-from-source, SSSP, PR-topk, CC-component-of). BC and TC
// are whole-graph batch kernels with no per-query parameter worth serving.
var servedKernels = []core.Kernel{core.BFS, core.SSSP, core.PR, core.CC}

// plan validates a query request into a queryPlan, or returns the response
// to send instead.
func (s *Server) plan(req Request) (*queryPlan, *Response) {
	fail := func(code Code, format string, args ...any) (*queryPlan, *Response) {
		return nil, &Response{ID: req.ID, Code: code, Error: fmt.Sprintf(format, args...)}
	}

	k := core.Kernel(strings.ToUpper(strings.TrimSpace(req.Kernel)))
	served := false
	for _, sk := range servedKernels {
		if k == sk {
			served = true
			break
		}
	}
	if !served {
		return fail(CodeInvalidArgument, "unknown kernel %q (served: BFS, SSSP, PR, CC)", req.Kernel)
	}

	graphName := req.Graph
	if graphName == "" && len(s.graphOrder) == 1 {
		graphName = s.graphOrder[0]
	}
	in, ok := s.graphs[graphName]
	if !ok {
		return fail(CodeNotFound, "graph %q not served (try op=graphs)", req.Graph)
	}

	fwName := req.Framework
	if fwName == "" {
		fwName = s.defaultFW
	}
	f, ok := s.frameworks[fwName]
	if !ok {
		return fail(CodeNotFound, "framework %q not served", req.Framework)
	}

	p := &queryPlan{req: req, in: in, f: f, fwName: fwName, k: k}
	n := int64(in.Graph.NumNodes())
	switch k {
	case core.BFS, core.SSSP:
		if req.Source < 0 || req.Source >= n {
			return fail(CodeInvalidArgument, "source %d out of range [0,%d)", req.Source, n)
		}
		p.src = graph.NodeID(req.Source)
		p.target = -1
		if req.Target != nil {
			if *req.Target < 0 || *req.Target >= n {
				return fail(CodeInvalidArgument, "target %d out of range [0,%d)", *req.Target, n)
			}
			p.target = graph.NodeID(*req.Target)
		}
	case core.PR:
		p.topk = req.K
		if p.topk <= 0 {
			p.topk = 10
		}
		if p.topk > maxTopK {
			p.topk = maxTopK
		}
		if int64(p.topk) > n {
			p.topk = int(n)
		}
	case core.CC:
		if req.Vertex < 0 || req.Vertex >= n {
			return fail(CodeInvalidArgument, "vertex %d out of range [0,%d)", req.Vertex, n)
		}
		p.vertex = graph.NodeID(req.Vertex)
	}

	p.budget = s.cfg.defaultBudget()
	if req.BudgetMS > 0 {
		p.budget = time.Duration(req.BudgetMS) * time.Millisecond
	}
	if maxB := s.cfg.maxBudget(); p.budget > maxB {
		p.budget = maxB
	}
	return p, nil
}

// query is the full lifecycle of one query request.
func (s *Server) query(req Request, connTok *par.CancelToken) Response {
	start := time.Now()
	p, errResp := s.plan(req)
	if errResp != nil {
		errResp.Micros = time.Since(start).Microseconds()
		return *errResp
	}
	p.seed = splitmix64(s.cfg.Seed ^ s.queryID.Add(1))

	// Shed gates, cheapest first. Each refusal costs microseconds and no
	// pool time — the whole point of shedding over queuing.
	if s.draining.Load() {
		s.c.drainShed.Add(1)
		return Response{ID: req.ID, Code: CodeUnavailable, Error: "server draining",
			Kernel: string(p.k), Graph: p.in.Spec.Name, Framework: p.fwName,
			Micros: time.Since(start).Microseconds()}
	}
	allowed, probe := s.breakers.Allow(p.fwName, string(p.k))
	if !allowed {
		s.c.breakerShed.Add(1)
		return Response{ID: req.ID, Code: CodeUnavailable,
			Error:  fmt.Sprintf("%s %s quarantined (circuit open; retry after cooldown)", p.fwName, p.k),
			Kernel: string(p.k), Graph: p.in.Spec.Name, Framework: p.fwName,
			Micros: time.Since(start).Microseconds()}
	}
	if verdict := s.adm.Admit(); verdict != admitOK {
		// A shed probe must not leave the circuit wedged half-open: reset it
		// to open so the cooldown restarts and a later query re-probes.
		if probe {
			s.breakers.ResetProbe(p.fwName, string(p.k))
		}
		msg := "admission rate exceeded"
		if verdict == admitShedQueue {
			s.c.shedQueue.Add(1)
			msg = "queue depth watermark reached"
		} else {
			s.c.shedRate.Add(1)
		}
		return Response{ID: req.ID, Code: CodeResourceExhausted, Error: msg,
			Kernel: string(p.k), Graph: p.in.Spec.Name, Framework: p.fwName,
			Micros: time.Since(start).Microseconds()}
	}
	defer s.adm.Done()
	s.c.accepted.Add(1)
	defer s.c.completed.Add(1)

	resp := s.answer(p, connTok, probe)
	resp.ID = req.ID
	resp.Kernel = string(p.k)
	resp.Graph = p.in.Spec.Name
	resp.Framework = p.fwName
	resp.Micros = time.Since(start).Microseconds()
	return resp
}

// attemptOut is the result of one sandboxed attempt: the suite's Outcome
// plus, for an OK attempt, what the kernel answered.
type attemptOut struct {
	core.Outcome
	result *QueryResult
	// build verifies a PR/CC run's full output and makes its snapshot; it
	// runs after the attempt, outside the budget (see verifyBuild).
	build func() (*snapshot, error)
	snap  *snapshot // the verified whole-graph answers, to publish
}

// answer runs an admitted query. PR and CC are answered from their snapshot
// when one is published; a miss runs the full kernel path. probe marks the
// query as the breaker's half-open probe — its outcome decides whether the
// circuit closes, so it never takes a hit: only a real kernel success may
// close a circuit.
func (s *Server) answer(p *queryPlan, connTok *par.CancelToken, probe bool) Response {
	if !probe && (p.k == core.PR || p.k == core.CC) {
		if sn := s.snaps.get(p.snapKey()); sn != nil {
			return s.hit(p, sn)
		}
	}
	return s.execute(p, connTok, probe)
}

// hit answers a query from a published snapshot: no lease, no kernel, and
// kernel_micros 0. The graph seals are re-checked first (a no-op unless
// built with graphguard), so a corrupted CSR answers INTERNAL on a hit just
// as a kernel run would; under servecheck the snapshot's checksum is too.
func (s *Server) hit(p *queryPlan, sn *snapshot) Response {
	res, errMsg := serveHit(p, sn)
	if errMsg != "" {
		s.journalQuery(p, []core.TrialRecord{{Status: core.Panicked, Err: errMsg}}, core.Panicked, 0, errMsg)
		s.c.panics.Add(1)
		return Response{Code: CodeInternal, Error: errMsg}
	}
	// No trial record: the journal line keeps Seconds -1, the no-timing
	// marker, so a hit never reads as a 0-second kernel run.
	s.journalQuery(p, nil, core.OK, 0, "")
	s.c.ok.Add(1)
	s.c.snapshotHits.Add(1)
	return Response{Code: CodeOK, Result: res, Cached: true}
}

// serveHit runs the hit's checks and reduction, recording a panic from any
// of them as the query's error.
func serveHit(p *queryPlan, sn *snapshot) (*QueryResult, string) {
	var res *QueryResult
	out := core.Guard(p.name()+": cached answer", func() {
		p.in.Graph.MustCheckSeal()
		p.in.Undirected.MustCheckSeal()
		snapshotCheck(sn)
		res = sn.answer(p)
	})
	if out.Status != core.OK {
		return nil, out.Err
	}
	return res, ""
}

// execute runs the retry loop under the query's deadline budget, publishing
// the snapshot a successful PR or CC run built.
func (s *Server) execute(p *queryPlan, connTok *par.CancelToken, probe bool) Response {
	// The budget token is the composition satellite in action: the machine
	// polls ONE token that fires on either the per-query deadline or the
	// client connection going away (par.Chain). It spans the whole query —
	// lease waits, attempts, and backoff all spend the same budget.
	deadline := time.Now().Add(p.budget)
	qTok := par.Chain(connTok, par.NewDeadlineToken(p.budget))

	var records []core.TrialRecord
	var out attemptOut
	retries := 0
	for attempt := 0; ; attempt++ {
		var abandoned bool
		var err error
		out, abandoned, err = s.attempt(p, qTok, deadline)
		if err != nil {
			// Lease acquisition failed — nothing ran, nothing to retry. A
			// probe that never ran proved nothing: reset its circuit to open
			// (cooldown restarts) instead of leaving it wedged half-open.
			if probe {
				s.breakers.ResetProbe(p.fwName, string(p.k))
			}
			s.journalQuery(p, records, core.TimedOut, retries, err.Error())
			if err == ErrPoolDraining {
				s.c.drainShed.Add(1)
				return Response{Code: CodeUnavailable, Error: "server draining", Retries: retries}
			}
			s.c.timeouts.Add(1)
			return Response{Code: CodeDeadlineExceeded,
				Error:   fmt.Sprintf("budget (%v) exhausted waiting for a machine lease", p.budget),
				Retries: retries}
		}
		if out.build != nil {
			verifyBuild(p, &out)
		}
		records = append(records, core.TrialRecord{
			Trial: 0, Attempt: attempt,
			Status: out.Status, Seconds: out.Seconds,
			Err: out.Err, Stack: out.Stack,
		})
		if abandoned {
			s.breakers.OnAbandon(p.fwName, string(p.k), probe)
		}
		if out.Status == core.OK {
			s.breakers.OnSuccess(p.fwName, string(p.k), probe)
			break
		}
		if !abandoned {
			s.breakers.OnFailure(p.fwName, string(p.k), probe)
		}
		if !s.cfg.Retry.policy().Retry(attempt, out.Status) {
			break
		}
		// Backoff before the retry, bounded by the remaining budget; a fired
		// token (budget gone, client gone) ends the query instead.
		d := backoff(retries, p.seed)
		if time.Until(deadline) <= d || !sleepInterruptible(d, qTok) {
			break
		}
		retries++
		s.c.retries.Add(1)
	}

	s.journalQuery(p, records, out.Status, retries, out.Err)
	switch out.Status {
	case core.OK:
		if out.snap != nil {
			s.snaps.publish(p.snapKey(), out.snap)
			s.c.snapshotBuilds.Add(1)
		}
		s.c.ok.Add(1)
		return Response{Code: CodeOK, Retries: retries, Result: out.result,
			KernelMicros: int64(out.Seconds * 1e6)}
	case core.TimedOut:
		s.c.timeouts.Add(1)
		return Response{Code: CodeDeadlineExceeded, Error: out.Err, Retries: retries}
	case core.VerifyFailed:
		s.c.verifyFailed.Add(1)
		return Response{Code: CodeInternal, Error: out.Err, Retries: retries}
	default: // Panicked
		s.c.panics.Add(1)
		return Response{Code: CodeInternal, Error: out.Err, Retries: retries}
	}
}

// attempt runs one kernel attempt on a leased machine in the core Sandbox.
// The lease is settled on every path — Release normally, Abandon (handing
// the pool the sandbox's reap) when the kernel ignored its fired token past
// the grace period — via the deferred closure the gapvet lease-return rule
// checks for. The bool reports abandonment; a non-nil error means no lease
// was obtained (pool draining, budget gone while queued).
func (s *Server) attempt(p *queryPlan, tok *par.CancelToken, deadline time.Time) (attemptOut, bool, error) {
	lease, err := s.pool.Acquire(tok)
	if err != nil {
		return attemptOut{}, false, err
	}
	var reap func()
	defer func() {
		if reap != nil {
			lease.Abandon(reap)
		} else {
			lease.Release()
		}
	}()

	opt := kernel.Options{
		Workers:        s.pool.Workers(),
		Mode:           kernel.Baseline,
		Delta:          p.in.Spec.Delta,
		Machine:        lease.Machine(),
		Cancel:         tok,
		UndirectedView: p.in.Undirected,
	}
	// The graph views are read here, not in the body: an abandoned sandbox
	// may wake long after this query (and even the Input) is gone.
	g, und := p.in.Graph, p.in.Undirected
	var result *QueryResult
	var build func() (*snapshot, error)
	var out attemptOut
	out.Outcome, reap = core.Sandbox{
		Name: p.name(), Machine: opt.Machine, Cancel: tok,
		Deadline: deadline, Grace: s.cfg.grace(),
		Seals: []*graph.Graph{g, und},
	}.Run(func() { result, build = runKernel(p, g, opt) })
	if out.Status == core.OK {
		out.result, out.build = result, build
	}
	return out, reap != nil, nil
}

// verifyBuild runs a successful PR/CC attempt's build: verify the full
// output, make the snapshot, and read this query's answer from it. A
// rejected output becomes VerifyFailed, so a wrong answer is never cached
// and the query answers INTERNAL. It runs after the attempt has returned its
// lease and outside the deadline budget and abandonment grace: the check is
// paid once per snapshot key, and a budget sized for the kernel must not
// time out the run that would publish. A panic (reducing garbage output)
// is the kernel's fault and is recorded like one inside the sandbox.
func verifyBuild(p *queryPlan, out *attemptOut) {
	var sn *snapshot
	var err error
	guarded := core.Guard(p.name()+": verifying output", func() {
		if sn, err = out.build(); err == nil {
			out.result = sn.answer(p)
		}
	})
	out.build = nil
	switch {
	case guarded.Status != core.OK:
		out.Status, out.Err, out.Stack = guarded.Status, guarded.Err, guarded.Stack
		out.result = nil
	case err != nil:
		out.Status = core.VerifyFailed
		out.Err = fmt.Sprintf("%s: output failed verification: %v", p.name(), err)
	default:
		out.snap = sn
	}
}

// runKernel dispatches the planned kernel. BFS and SSSP reduce their full
// output to the query's answer here, inside the sandbox on purpose:
// reducing garbage output (a corrupted kernel result) may panic, and that
// is the kernel's fault to report, not the daemon's to crash on. PR and CC
// return a build, which verifyBuild runs after the attempt under its own
// recover. g is passed in (not read off p.in) so the sandbox holds no
// Input-field reads.
func runKernel(p *queryPlan, g *graph.Graph, opt kernel.Options) (*QueryResult, func() (*snapshot, error)) {
	switch p.k {
	case core.BFS:
		parent := p.f.BFS(g, p.src, opt)
		res := &QueryResult{}
		for _, pv := range parent {
			if pv >= 0 {
				res.Reached++
			}
		}
		return res, nil
	case core.SSSP:
		dist := p.f.SSSP(g, p.src, opt)
		res := &QueryResult{}
		for _, d := range dist {
			if d != kernel.Inf {
				res.Reached++
			}
		}
		if p.target >= 0 && p.target < graph.NodeID(len(dist)) {
			d := int64(-1) // the documented "unreachable" sentinel
			if dist[p.target] != kernel.Inf {
				d = int64(dist[p.target])
			}
			res.Dist = &d
		}
		return res, nil
	case core.PR:
		ranks := p.f.PR(g, opt)
		return nil, func() (*snapshot, error) { return newPRSnapshot(g, ranks) }
	default: // core.CC — plan admits nothing else
		labels := p.f.CC(g, opt)
		return nil, func() (*snapshot, error) { return newCCSnapshot(g, labels) }
	}
}

// topK selects the k highest-scoring vertices, score descending then vertex
// ascending (a tie never displaces an earlier vertex), so topK(s, k) is
// topK(s, maxTopK)[:k] for every k ≤ maxTopK. Insertion into a small sorted
// window is O(n·k) worst case, but k ≤ maxTopK and most vertices fail the
// threshold test in O(1), so no full n-element sort is paid.
func topK(scores []float64, k int) []RankEntry {
	if k > len(scores) {
		k = len(scores)
	}
	top := make([]RankEntry, 0, k)
	for v, sc := range scores {
		if len(top) == k && sc <= top[k-1].Score {
			continue
		}
		i := len(top)
		if i < k {
			top = append(top, RankEntry{})
		} else {
			i = k - 1
		}
		for i > 0 && top[i-1].Score < sc {
			top[i] = top[i-1]
			i--
		}
		top[i] = RankEntry{V: int64(v), Score: sc}
	}
	return top
}

// journalQuery appends the query outcome to the suite journal (when
// configured) as a core.Result — one "cell" with one trial, CellID-keyed like
// any batch result, its attempts as TrialRecords. Journal write failures are
// logged, never surfaced to the client: losing a ledger line must not fail a
// query that already ran.
func (s *Server) journalQuery(p *queryPlan, records []core.TrialRecord, status core.Status, retries int, errMsg string) {
	if s.cfg.JournalPath == "" {
		return
	}
	res := core.Result{
		Framework: p.fwName,
		Kernel:    p.k,
		Graph:     p.in.Spec.Name,
		Mode:      kernel.Baseline,
		Status:    status,
		Seconds:   -1,
		Trials:    1,
		Retries:   retries,
		Verified:  status == core.OK,
		GraphFile: p.in.File,
	}
	if p.in.Graph != nil {
		res.GraphEpoch = p.in.Graph.Epoch()
	}
	if status == core.OK && len(records) > 0 {
		last := records[len(records)-1]
		res.Seconds = last.Seconds
		res.AvgSeconds = last.Seconds
	} else {
		res.Err = errMsg
	}
	res.TrialRecords = records
	s.journalMu.Lock()
	err := core.AppendJournal(s.cfg.JournalPath, res)
	s.journalMu.Unlock()
	if err != nil {
		s.logf("serve: journal: %v", err)
	}
}

package serve

// Chaos-wired e2e: the daemon serves a real framework wrapped in the chaos
// injector (internal/chaos) and must survive the full fault matrix — shed,
// retry, quarantine, keep serving, never crash, never leak a machine lease.
// Faults arm only under `go test -tags=chaos`; without the tag every test
// here skips (same convention as internal/core's chaos e2e).

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"gapbench/internal/chaos"
	"gapbench/internal/core"
	"gapbench/internal/graph"
	"gapbench/internal/testutil"
)

// chaosHang bounds how long injected Hang faults ignore cancellation, so
// drains can reap the abandoned machines within test deadlines.
const chaosHang = 200 * time.Millisecond

func requireChaos(t *testing.T) {
	t.Helper()
	if !chaos.Enabled() {
		t.Skip("needs -tags=chaos")
	}
}

func startChaosServer(t *testing.T, cfg Config, in *core.Input, faults ...*chaos.Fault) (*Server, string) {
	t.Helper()
	inj := chaos.Wrap(core.FrameworkByName("GAP"), 1, faults...)
	return startServer(t, cfg, in, inj)
}

func TestChaosServePanicRetryRecovers(t *testing.T) {
	requireChaos(t)
	defer testutil.CheckGoroutines(t)()
	in := smallInput(t)
	srv, sock := startChaosServer(t, Config{PoolSize: 1, Workers: 1}, in,
		&chaos.Fault{Kernel: "BFS", Mode: chaos.Panic, Once: true})
	c := dial(t, sock)

	resp := c.do(Request{Kernel: "BFS", Source: 1})
	if resp.Code != CodeOK || resp.Retries != 1 {
		t.Fatalf("once-panic query: code=%s retries=%d err=%q, want OK after 1 retry", resp.Code, resp.Retries, resp.Error)
	}
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestChaosServeDeterministicPanicKeepsServing(t *testing.T) {
	requireChaos(t)
	defer testutil.CheckGoroutines(t)()
	in := smallInput(t)
	srv, sock := startChaosServer(t, Config{PoolSize: 1, Workers: 1}, in,
		&chaos.Fault{Kernel: "PR", Mode: chaos.Panic})
	c := dial(t, sock)

	resp := c.do(Request{Kernel: "PR"})
	if resp.Code != CodeInternal || !strings.Contains(resp.Error, "chaos: injected panic") {
		t.Fatalf("panicking PR: %+v", resp)
	}
	// The daemon survives and the untargeted kernels keep serving.
	for _, req := range []Request{{Kernel: "BFS", Source: 1}, {Kernel: "CC", Vertex: 1}} {
		if r := c.do(req); r.Code != CodeOK {
			t.Fatalf("%s after panic: %+v", req.Kernel, r)
		}
	}
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestChaosServeStallTimesOutMachineKept(t *testing.T) {
	requireChaos(t)
	defer testutil.CheckGoroutines(t)()
	in := smallInput(t)
	srv, sock := startChaosServer(t, Config{PoolSize: 1, Workers: 1, Grace: 100 * time.Millisecond}, in,
		&chaos.Fault{Kernel: "BFS", Mode: chaos.Stall})
	c := dial(t, sock)

	resp := c.do(Request{Kernel: "BFS", Source: 1, BudgetMS: 50})
	if resp.Code != CodeDeadlineExceeded {
		t.Fatalf("stalled query: %+v", resp)
	}
	if got := srv.Pool().Abandoned(); got != 0 {
		t.Errorf("cooperative stall abandoned %d machines", got)
	}
	if r := c.do(Request{Kernel: "CC", Vertex: 1}); r.Code != CodeOK {
		t.Fatalf("CC after stall: %+v", r)
	}
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestChaosServeHangAbandonsHealsAndDrainsClean(t *testing.T) {
	requireChaos(t)
	defer testutil.CheckGoroutines(t)()
	in := smallInput(t)
	srv, sock := startChaosServer(t, Config{PoolSize: 1, Workers: 1, Grace: 40 * time.Millisecond}, in,
		&chaos.Fault{Kernel: "BFS", Mode: chaos.Hang, HangExtra: chaosHang})
	c := dial(t, sock)

	resp := c.do(Request{Kernel: "BFS", Source: 1, BudgetMS: 40})
	if resp.Code != CodeDeadlineExceeded || !strings.Contains(resp.Error, "abandoned") {
		t.Fatalf("hung query: %+v", resp)
	}
	if got := srv.Pool().Abandoned(); got != 1 {
		t.Errorf("abandoned = %d, want 1", got)
	}
	// Self-healed pool keeps serving while the hung kernel sleeps on.
	if r := c.do(Request{Kernel: "CC", Vertex: 1}); r.Code != CodeOK {
		t.Fatalf("CC after hang: %+v", r)
	}
	// The drain must reap the abandoned machine and prove zero leases leaked
	// (panics under -tags=servecheck, errors otherwise — nil means clean).
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("shutdown after hang: %v", err)
	}
	if got := srv.Pool().Outstanding(); got != 0 {
		t.Errorf("outstanding leases after drain = %d", got)
	}
}

func TestChaosServeBreakerOpensAndProbeCloses(t *testing.T) {
	requireChaos(t)
	defer testutil.CheckGoroutines(t)()
	in := smallInput(t)
	// Three one-shot Hang faults: exactly three consecutive abandonments,
	// then the framework is healthy again — the breaker must open at the
	// third and close on the post-cooldown probe.
	srv, sock := startChaosServer(t, Config{
		PoolSize: 1, Workers: 1,
		Grace:   30 * time.Millisecond,
		Breaker: BreakerConfig{Threshold: 3, Cooldown: 150 * time.Millisecond},
	}, in,
		&chaos.Fault{Kernel: "BFS", Mode: chaos.Hang, Once: true, HangExtra: chaosHang},
		&chaos.Fault{Kernel: "BFS", Mode: chaos.Hang, Once: true, HangExtra: chaosHang},
		&chaos.Fault{Kernel: "BFS", Mode: chaos.Hang, Once: true, HangExtra: chaosHang},
	)
	c := dial(t, sock)

	for i := 0; i < 3; i++ {
		resp := c.do(Request{Kernel: "BFS", Source: 1, BudgetMS: 40})
		if resp.Code != CodeDeadlineExceeded {
			t.Fatalf("hang %d: %+v", i, resp)
		}
	}
	waitFor(t, func() bool { return srv.StatsSnapshot().BreakerOpens == 1 })

	// Open: fail-fast, no machine spent.
	resp := c.do(Request{Kernel: "BFS", Source: 1})
	if resp.Code != CodeUnavailable || !strings.Contains(resp.Error, "quarantined") {
		t.Fatalf("quarantined query: %+v", resp)
	}
	abandonedBefore := srv.Pool().Abandoned()

	// Cooldown, then the probe (faults exhausted → clean run) closes it.
	time.Sleep(180 * time.Millisecond)
	if r := c.do(Request{Kernel: "BFS", Source: 1, BudgetMS: 2000}); r.Code != CodeOK {
		t.Fatalf("probe query: %+v", r)
	}
	if r := c.do(Request{Kernel: "BFS", Source: 2, BudgetMS: 2000}); r.Code != CodeOK {
		t.Fatalf("query after close: %+v", r)
	}
	st := srv.StatsSnapshot()
	if st.BreakerOpens != 1 {
		t.Errorf("breaker_opens = %d, want 1 (no reopen after recovery)", st.BreakerOpens)
	}
	if got := srv.Pool().Abandoned(); got != abandonedBefore {
		t.Errorf("quarantine/probe cost %d extra machines", got-abandonedBefore)
	}
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestChaosServeCorruptGraphTrippedByGraphguard(t *testing.T) {
	requireChaos(t)
	if !graph.GuardEnabled() {
		t.Skip("needs -tags=chaos,graphguard (seal checks are no-ops otherwise)")
	}
	// Dedicated input: the injected corruption permanently poisons the
	// shared CSR, so this graph must not be reused by other tests.
	in, err := core.LoadInput(core.GraphSpec{Name: "Urand", Scale: 6, Seed: 3, Delta: 16, SourceSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = in.Close() })
	srv, sock := startChaosServer(t, Config{PoolSize: 1, Workers: 1}, in,
		&chaos.Fault{Kernel: "CC", Mode: chaos.CorruptGraph, Once: true})
	c := dial(t, sock)

	// The sandboxed seal check catches the mutation as a panic — the client
	// sees INTERNAL naming the corrupted array, never a silent wrong answer.
	resp := c.do(Request{Kernel: "CC", Vertex: 1})
	if resp.Code != CodeInternal || !strings.Contains(resp.Error, "graphguard") {
		t.Fatalf("corrupt-graph query: %+v", resp)
	}
	// The daemon survives; the corrupted graph keeps tripping the seal (the
	// guard refuses to serve poisoned data), which is the correct behavior.
	if r := c.do(Request{Kernel: "BFS", Source: 1}); r.Code != CodeInternal {
		t.Fatalf("BFS on corrupted graph: %+v, want INTERNAL (seal still broken)", r)
	}
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestChaosServeCorruptOutputNeverCached: a corrupted PR or CC output must
// fail verification (INTERNAL, verify_failed) instead of being served as OK
// or published; once the fault is spent the next query reruns clean and
// publishes, and every later hit serves that clean answer. On smallInput
// the injector's CC victim (seed 1) is vertex 42, which has neighbours, so
// relabelling it splits a component and CheckCC sees the change.
func TestChaosServeCorruptOutputNeverCached(t *testing.T) {
	requireChaos(t)
	for _, req := range []Request{{Kernel: "PR", K: 10}, {Kernel: "CC", Vertex: 42}} {
		t.Run(req.Kernel, func(t *testing.T) {
			in := smallInput(t)
			srv, sock := startChaosServer(t, Config{PoolSize: 1, Workers: 1}, in,
				&chaos.Fault{Kernel: req.Kernel, Mode: chaos.Corrupt})
			c := dial(t, sock)
			for i := 1; i <= 2; i++ {
				resp := c.do(req)
				if resp.Code != CodeInternal || resp.Cached || !strings.Contains(resp.Error, "verification") {
					t.Fatalf("corrupt %s query %d: %+v", req.Kernel, i, resp)
				}
				// Each query reran the kernel: nothing was cached.
				if st := srv.StatsSnapshot(); st.VerifyFailed != int64(i) || st.SnapshotBuilds != 0 || st.OK != 0 {
					t.Fatalf("stats after corrupt query %d: %+v", i, st)
				}
			}
			if err := srv.Shutdown(5 * time.Second); err != nil {
				t.Fatalf("shutdown: %v", err)
			}
		})
	}
}

func TestChaosServeCorruptOnceRerunsCleanThenHits(t *testing.T) {
	requireChaos(t)
	for _, req := range []Request{{Kernel: "PR", K: 10}, {Kernel: "CC", Vertex: 42}} {
		t.Run(req.Kernel, func(t *testing.T) {
			in := smallInput(t)
			srv, sock := startChaosServer(t, Config{PoolSize: 1, Workers: 1}, in,
				&chaos.Fault{Kernel: req.Kernel, Mode: chaos.Corrupt, Once: true})
			c := dial(t, sock)

			if resp := c.do(req); resp.Code != CodeInternal || resp.Result != nil {
				t.Fatalf("corrupted %s query: %+v", req.Kernel, resp)
			}
			if st := srv.StatsSnapshot(); st.VerifyFailed != 1 {
				t.Fatalf("verify_failed = %d, want 1", st.VerifyFailed)
			}
			clean := c.do(req)
			if clean.Code != CodeOK || clean.Cached || clean.Result == nil {
				t.Fatalf("rerun after the spent fault: %+v", clean)
			}
			for i := 0; i < 5; i++ {
				hit := c.do(req)
				if hit.Code != CodeOK || !hit.Cached {
					t.Fatalf("hit %d: %+v", i, hit)
				}
				if !reflect.DeepEqual(hit.Result, clean.Result) {
					t.Fatalf("hit %d served %+v, the verified run answered %+v", i, hit.Result, clean.Result)
				}
			}
			st := srv.StatsSnapshot()
			if st.VerifyFailed != 1 || st.SnapshotBuilds != 1 || st.SnapshotHits != 5 || st.OK != 6 {
				t.Errorf("stats: %+v", st)
			}
			if err := srv.Shutdown(5 * time.Second); err != nil {
				t.Fatalf("shutdown: %v", err)
			}
		})
	}
}

func TestChaosServeSnapshotHitChecksSeal(t *testing.T) {
	requireChaos(t)
	if !graph.GuardEnabled() {
		t.Skip("needs -tags=chaos,graphguard (seal checks are no-ops otherwise)")
	}
	// Dedicated input: the injected corruption permanently poisons the
	// shared CSR, so this graph must not be reused by other tests.
	in, err := core.LoadInput(core.GraphSpec{Name: "Urand", Scale: 6, Seed: 3, Delta: 16, SourceSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = in.Close() })
	srv, sock := startChaosServer(t, Config{PoolSize: 1, Workers: 1}, in,
		&chaos.Fault{Kernel: "CC", Mode: chaos.CorruptGraph, Once: true})
	c := dial(t, sock)

	if r := c.do(Request{Kernel: "PR"}); r.Code != CodeOK || r.Cached {
		t.Fatalf("warming PR: %+v", r)
	}
	if r := c.do(Request{Kernel: "CC", Vertex: 1}); r.Code != CodeInternal || !strings.Contains(r.Error, "graphguard") {
		t.Fatalf("corrupt-graph CC: %+v", r)
	}
	// The PR snapshot predates the corruption, but the graph it answers for
	// is poisoned now: the hit refuses, as a kernel run would.
	r := c.do(Request{Kernel: "PR"})
	if r.Code != CodeInternal || !strings.Contains(r.Error, "graphguard") || !strings.Contains(r.Error, "cached answer") {
		t.Fatalf("PR hit on a corrupted graph: %+v", r)
	}
	if st := srv.StatsSnapshot(); st.SnapshotHits != 0 || st.SnapshotBuilds != 1 {
		t.Errorf("stats: %+v", st)
	}
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

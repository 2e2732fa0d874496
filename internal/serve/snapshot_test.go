package serve

import (
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gapbench/internal/core"
	"gapbench/internal/graph"
	"gapbench/internal/kernel"
	"gapbench/internal/par"
	"gapbench/internal/verify"
)

// countingPR counts PR kernel runs.
type countingPR struct {
	stubFramework
	calls *atomic.Int32
}

func (f countingPR) PR(g *graph.Graph, opt kernel.Options) []float64 {
	f.calls.Add(1)
	return f.stubFramework.PR(g, opt)
}

// fixedCC answers CC instantly with a copy of precomputed labels, so a
// query's time is all lease, verification and reduction.
type fixedCC struct {
	stubFramework
	labels []graph.NodeID
}

func (f fixedCC) CC(g *graph.Graph, opt kernel.Options) []graph.NodeID {
	return append([]graph.NodeID(nil), f.labels...)
}

// zeroPR returns an all-zero PR vector, which the oracle rejects.
type zeroPR struct {
	stubFramework
	calls *atomic.Int32
}

func (f zeroPR) PR(g *graph.Graph, opt kernel.Options) []float64 {
	f.calls.Add(1)
	return make([]float64, g.NumNodes())
}

// newQueryServer builds a Server that tests drive through query directly,
// with no socket, so a test can also reach its internals race-free between
// queries.
func newQueryServer(t *testing.T, cfg Config, in *core.Input, fws ...kernel.Framework) *Server {
	t.Helper()
	cfg.Logf = t.Logf
	srv, err := NewServer(cfg, []*core.Input{in}, fws)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := srv.Shutdown(5 * time.Second); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return srv
}

func TestTopKIsPrefixOfMaxTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(400)
		levels := 1 + rng.Intn(6) // few distinct scores: heavy ties
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = float64(rng.Intn(levels)) / 8
		}
		full := topK(scores, maxTopK)
		for i := 1; i < len(full); i++ {
			a, b := full[i-1], full[i]
			if a.Score < b.Score || (a.Score == b.Score && a.V > b.V) {
				t.Fatalf("n=%d: entries %d,%d out of order: %+v %+v", n, i-1, i, a, b)
			}
		}
		for k := 1; k <= maxTopK; k++ {
			want := full[:min(k, len(full))]
			if got := topK(scores, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d k=%d: topK = %v, prefix of topK(%d) = %v", n, k, got, maxTopK, want)
			}
		}
	}
}

func TestComponentSizesMatchLabelScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	labels := make([]graph.NodeID, 500)
	for i := range labels {
		labels[i] = graph.NodeID(rng.Intn(40)) * 3 // sparse label ids
	}
	sizes := componentSizes(labels)
	for _, l := range labels {
		var scan int64
		for _, m := range labels {
			if m == l {
				scan++
			}
		}
		if sizes[l] != scan {
			t.Fatalf("size of label %d = %d, label scan counts %d", l, sizes[l], scan)
		}
	}
	var total int64
	for _, n := range sizes {
		total += n
	}
	if total != int64(len(labels)) {
		t.Errorf("sizes sum to %d, want %d", total, len(labels))
	}
}

func TestSnapshotServesPRAndCC(t *testing.T) {
	in := smallInput(t)
	calls := &atomic.Int32{}
	srv := newQueryServer(t, Config{PoolSize: 1, Workers: 1}, in, countingPR{stubFramework: stubFramework{"Stub"}, calls: calls})
	tok := par.NewCancelToken()

	first := srv.query(Request{Kernel: "PR", K: 20}, tok)
	if first.Code != CodeOK || first.Cached || len(first.Result.TopK) != 20 {
		t.Fatalf("PR miss: %+v", first)
	}
	for _, k := range []int{1, 5, 20, 100, 1000} {
		r := srv.query(Request{Kernel: "PR", K: k}, tok)
		want := min(k, maxTopK, int(in.Graph.NumNodes()))
		if r.Code != CodeOK || !r.Cached || r.KernelMicros != 0 || len(r.Result.TopK) != want {
			t.Fatalf("PR hit k=%d: %+v", k, r)
		}
		if n := min(k, 20); !reflect.DeepEqual(r.Result.TopK[:n], first.Result.TopK[:n]) {
			t.Errorf("PR hit k=%d: top %d differ from the kernel run's", k, n)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("PR kernel ran %d times, want 1", got)
	}

	oracle := stubFramework{}.CC(in.Graph, kernel.Options{})
	for v := int64(0); v < int64(in.Graph.NumNodes()); v++ {
		r := srv.query(Request{Kernel: "CC", Vertex: v}, tok)
		if r.Code != CodeOK || r.Cached != (v > 0) {
			t.Fatalf("CC vertex %d: %+v", v, r)
		}
		var size int64
		for _, l := range oracle {
			if l == oracle[v] {
				size++
			}
		}
		if r.Result.Size != size {
			t.Errorf("CC vertex %d: size %d, oracle %d", v, r.Result.Size, size)
		}
	}
	st := srv.StatsSnapshot()
	n := int64(in.Graph.NumNodes())
	if st.SnapshotBuilds != 2 || st.SnapshotHits != 5+n-1 || st.OK != 6+n || st.Accepted != 6+n {
		t.Errorf("stats: %+v", st)
	}
}

func TestSnapshotKeyedByEpoch(t *testing.T) {
	inA := smallInput(t)
	inB, err := core.LoadInput(core.GraphSpec{Name: "Kron", Scale: 6, Seed: 2, Delta: 16, SourceSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = inB.Close() })
	if inA.Graph.Epoch() == inB.Graph.Epoch() {
		t.Fatal("test graphs share an epoch")
	}
	calls := &atomic.Int32{}
	srv := newQueryServer(t, Config{PoolSize: 1, Workers: 1}, inA, countingPR{stubFramework: stubFramework{"Stub"}, calls: calls})
	tok := par.NewCancelToken()

	srv.query(Request{Kernel: "PR"}, tok)
	if r := srv.query(Request{Kernel: "PR"}, tok); !r.Cached {
		t.Fatalf("second PR on epoch A: %+v", r)
	}
	// The same graph name now carries different bytes: a miss, built anew.
	srv.graphs["Kron"] = inB
	r := srv.query(Request{Kernel: "PR"}, tok)
	if r.Code != CodeOK || r.Cached {
		t.Fatalf("first PR on epoch B: %+v, want a kernel run", r)
	}
	want := topK(stubFramework{}.PR(inB.Graph, kernel.Options{}), 10)
	if !reflect.DeepEqual(r.Result.TopK, want) {
		t.Errorf("epoch B answer %v, want %v", r.Result.TopK, want)
	}
	if r := srv.query(Request{Kernel: "PR"}, tok); !r.Cached {
		t.Fatalf("second PR on epoch B: %+v", r)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("PR kernel ran %d times, want 2 (one per epoch)", got)
	}
}

// TestSnapshotVerifyOutsideBudget: the one-time verification of a build
// does not spend the query's deadline budget or the abandonment grace. A
// kernel that fits the budget publishes even when kernel plus verification
// takes several budgets, and no machine is abandoned.
func TestSnapshotVerifyOutsideBudget(t *testing.T) {
	if graph.GuardEnabled() {
		// The in-budget seal re-hash then costs several verifications, so
		// no budget fits the kernel yet falls short of the build.
		t.Skip("the graphguard seal check outweighs the verification")
	}
	in, err := core.LoadInput(core.GraphSpec{Name: "Kron", Scale: 16, Seed: 1, Delta: 16, SourceSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = in.Close() })
	labels := verify.Components(in.Graph)
	cost := time.Hour
	for range 2 {
		start := time.Now()
		if err := verify.CheckCC(in.Graph, labels); err != nil {
			t.Fatal(err)
		}
		cost = min(cost, time.Since(start))
	}
	// The stub kernel is a copy; a quarter of one verification is budget
	// enough for it, and the build needs about four budgets.
	budget := max(cost/4, 5*time.Millisecond).Truncate(time.Millisecond)
	srv := newQueryServer(t, Config{PoolSize: 1, Workers: 1, Grace: time.Millisecond,
		Retry: RetryConfig{Policy: &core.RetryPolicy{MaxRetries: 0}}},
		in, fixedCC{stubFramework{"Stub"}, labels})
	tok := par.NewCancelToken()

	r := srv.query(Request{Kernel: "CC", Vertex: 1, BudgetMS: budget.Milliseconds()}, tok)
	if r.Code != CodeOK || r.Cached {
		t.Fatalf("build within a %v budget: %+v", budget, r)
	}
	if took := time.Duration(r.Micros) * time.Microsecond; took <= budget {
		t.Fatalf("build answered in %v, within its %v budget: verification (%v) too fast for this test", took, budget, cost)
	}
	if r := srv.query(Request{Kernel: "CC", Vertex: 2, BudgetMS: budget.Milliseconds()}, tok); r.Code != CodeOK || !r.Cached {
		t.Fatalf("query after the build: %+v", r)
	}
	if st := srv.StatsSnapshot(); st.SnapshotBuilds != 1 || st.Abandoned != 0 || st.Timeouts != 0 {
		t.Errorf("stats: %+v", st)
	}
}

func TestSnapshotBreakerProbeBypassesHit(t *testing.T) {
	in := smallInput(t)
	calls := &atomic.Int32{}
	srv := newQueryServer(t, Config{
		PoolSize: 1, Workers: 1,
		Breaker: BreakerConfig{Threshold: 1, Cooldown: time.Millisecond},
	}, in, countingPR{stubFramework: stubFramework{"Stub"}, calls: calls})
	tok := par.NewCancelToken()

	srv.query(Request{Kernel: "PR"}, tok)
	if r := srv.query(Request{Kernel: "PR"}, tok); !r.Cached {
		t.Fatalf("warm hit: %+v", r)
	}
	srv.breakers.OnAbandon("Stub", "PR", false) // open the PR circuit
	time.Sleep(5 * time.Millisecond)            // past the cooldown: the next PR query is the probe
	probe := srv.query(Request{Kernel: "PR"}, tok)
	if probe.Code != CodeOK || probe.Cached {
		t.Fatalf("probe: %+v, want a kernel run despite the snapshot", probe)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("PR kernel ran %d times, want 2 (build + probe)", got)
	}
	// The probe's success closed the circuit; hits resume.
	if r := srv.query(Request{Kernel: "PR"}, tok); r.Code != CodeOK || !r.Cached {
		t.Fatalf("query after probe: %+v", r)
	}
}

func TestSnapshotVerifyFailedNeverCached(t *testing.T) {
	in := smallInput(t)
	calls := &atomic.Int32{}
	srv := newQueryServer(t, Config{PoolSize: 1, Workers: 1}, in, zeroPR{stubFramework{"Stub"}, calls})
	tok := par.NewCancelToken()
	for i := 1; i <= 3; i++ {
		r := srv.query(Request{Kernel: "PR"}, tok)
		if r.Code != CodeInternal || r.Cached || r.Result != nil || !strings.Contains(r.Error, "verification") {
			t.Fatalf("query %d on a wrong PR: %+v", i, r)
		}
		if got := calls.Load(); got != int32(i) {
			t.Fatalf("query %d: kernel ran %d times — a rejected output was cached", i, got)
		}
	}
	if st := srv.StatsSnapshot(); st.VerifyFailed != 3 || st.SnapshotBuilds != 0 || st.Retries != 0 {
		t.Errorf("stats: %+v", st)
	}
}

func TestSnapshotServecheckCatchesMutation(t *testing.T) {
	if !CheckEnabled() {
		t.Skip("needs -tags=servecheck")
	}
	in := smallInput(t)
	srv := newQueryServer(t, Config{PoolSize: 1, Workers: 1}, in, stubFramework{"Stub"})
	tok := par.NewCancelToken()
	first := srv.query(Request{Kernel: "PR"}, tok)
	if first.Code != CodeOK {
		t.Fatalf("warm: %+v", first)
	}
	// A write through a response's shared slice corrupts the snapshot.
	first.Result.TopK[0].Score += 1
	r := srv.query(Request{Kernel: "PR"}, tok)
	if r.Code != CodeInternal || !strings.Contains(r.Error, "servecheck") {
		t.Fatalf("hit on a mutated snapshot: %+v", r)
	}
}

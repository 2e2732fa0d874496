package graphit

import (
	"testing"

	"gapbench/internal/frontier"
	"gapbench/internal/generate"
	"gapbench/internal/graph"
	"gapbench/internal/kernel"
	"gapbench/internal/par"
	"gapbench/internal/testutil"
)

func TestVertexSetConversions(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	vs := frontier.FromList(100, []graph.NodeID{3, 50, 99})
	if vs.Size() != 3 {
		t.Fatalf("Size = %d", vs.Size())
	}
	bv := vs.ToBitmap(par.Default(), 2)
	if bv.Size() != 3 || !bv.Contains(50) || bv.Contains(4) {
		t.Fatal("bitvector conversion wrong")
	}
	back := bv.ToList(par.Default(), 2)
	if back.Size() != 3 {
		t.Fatalf("round-trip Size = %d", back.Size())
	}
	got := map[graph.NodeID]bool{}
	for _, v := range back.List() {
		got[v] = true
	}
	for _, v := range []graph.NodeID{3, 50, 99} {
		if !got[v] {
			t.Fatalf("round trip lost %d", v)
		}
	}
	// Add on both layouts.
	sp := frontier.NewSet(10, SparseList)
	sp.Add(4)
	if sp.Size() != 1 {
		t.Fatal("sparse Add wrong")
	}
	bb := frontier.NewSet(10, Bitvector)
	bb.Add(4)
	bb.Add(4) // duplicate must not double-count
	if bb.Size() != 1 {
		t.Fatalf("bitvector Add counted duplicates: %d", bb.Size())
	}
}

func TestEdgesetApplyPush(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	g, err := graph.Build([]graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}}, graph.BuildOptions{Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	front := frontier.FromList(3, []graph.NodeID{0})
	visited := make([]bool, 3)
	visited[0] = true
	for _, layout := range []FrontierLayout{SparseList, Bitvector} {
		v2 := append([]bool(nil), visited...)
		next := frontier.Push(par.Default(), g, front, layout, 2, func(u, v graph.NodeID) bool {
			if !v2[v] {
				v2[v] = true
				return true
			}
			return false
		})
		if next.Size() != 2 {
			t.Fatalf("layout %d: next size = %d, want 2", layout, next.Size())
		}
	}
}

func TestEdgesetApplyPull(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	g, err := graph.Build([]graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}}, graph.BuildOptions{Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	front := frontier.FromList(3, []graph.NodeID{0})
	parent := []graph.NodeID{0, -1, -1}
	next := frontier.Pull(par.Default(), g, front, 2,
		func(v graph.NodeID) bool { return parent[v] < 0 },
		func(u, v graph.NodeID) bool { parent[v] = u; return true })
	if next.Size() != 2 {
		t.Fatalf("pull next size = %d, want 2", next.Size())
	}
	if parent[1] != 0 || parent[2] != 0 {
		t.Fatalf("parents = %v", parent)
	}
}

func TestAutotuneSchedules(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	small, _ := generate.Kron(8, 1)
	if s := autotune("bfs", small); s.Direction != DirOpt {
		t.Error("bfs autotune should direction-optimize")
	}
	if s := autotune("sssp", small); !s.BucketFusion {
		t.Error("sssp autotune should enable bucket fusion")
	}
	if s := autotune("pr", small); s.CacheTiling {
		t.Error("small graph should not tile")
	}
	if s := autotune("bc", small); s.Frontier != Bitvector {
		t.Error("bc autotune should use a bitvector frontier")
	}
}

func TestSpecializeSchedules(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	g, _ := generate.Road(10, 1)
	opt := kernel.Options{Mode: kernel.Optimized, GraphName: "Road"}
	if s := scheduleFor("bfs", g, opt); s.Direction != PushOnly {
		t.Error("optimized Road BFS should be push-only (§V-A)")
	}
	if s := scheduleFor("cc", g, opt); !s.ShortCircuit {
		t.Error("optimized Road CC should short-circuit (§V-C)")
	}
	if s := scheduleFor("bc", g, opt); s.Frontier != SparseList {
		t.Error("optimized Road BC should drop the bitvector (§V-E)")
	}
	web := kernel.Options{Mode: kernel.Optimized, GraphName: "Web"}
	if s := scheduleFor("pr", g, web); s.CacheTiling {
		t.Error("optimized Web PR should not tile (§V-D: Web has good locality)")
	}
	// Baseline never consults the graph name.
	base := kernel.Options{Mode: kernel.Baseline, GraphName: ""}
	if s := scheduleFor("bfs", g, base); s.Direction != DirOpt {
		t.Error("baseline BFS must stay direction-optimizing")
	}
}

func TestSegmentsPartitionInEdges(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	g, err := generate.Kron(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	segs := buildSegments(g, 4)
	if len(segs) != 4 {
		t.Fatalf("segments = %d", len(segs))
	}
	n := int(g.NumNodes())
	width := (n + 3) / 4
	var total int64
	for si, seg := range segs {
		for v := 0; v < n; v++ {
			row := seg.neigh[seg.index[v]:seg.index[v+1]]
			total += int64(len(row))
			for _, u := range row {
				if int(u)/width != si {
					t.Fatalf("segment %d holds source %d (width %d)", si, u, width)
				}
			}
		}
	}
	if total != g.NumEdges() {
		t.Fatalf("segments hold %d edges, graph has %d", total, g.NumEdges())
	}
	// Per-vertex union across segments must equal the in-adjacency.
	for v := 0; v < n; v++ {
		var merged []graph.NodeID
		for _, seg := range segs {
			merged = append(merged, seg.neigh[seg.index[v]:seg.index[v+1]]...)
		}
		want := g.InNeighbors(graph.NodeID(v))
		if len(merged) != len(want) {
			t.Fatalf("vertex %d: segmented in-degree %d, want %d", v, len(merged), len(want))
		}
	}
}

func TestMergeVariantsAgree(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	x := []graph.NodeID{1, 3, 5, 7, 9, 11}
	y := []graph.NodeID{2, 3, 4, 7, 11, 13}
	if a, b := mergeCount(x, y, -1), mergeCountBranchless(x, y, -1); a != b || a != 3 {
		t.Fatalf("merge variants disagree: %d vs %d", a, b)
	}
	if a := mergeCount(x, y, 7); a != 1 { // only 11 above floor 7
		t.Fatalf("floored merge = %d, want 1", a)
	}
	if mergeCount(nil, y, -1) != 0 || mergeCountBranchless(x, nil, -1) != 0 {
		t.Fatal("empty list intersection nonzero")
	}
}

func TestLabelPropShortCircuitEquivalence(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	g, err := generate.Road(8, 9)
	if err != nil {
		t.Fatal(err)
	}
	plain := cc(par.Default(), g, Schedule{}, 2)
	short := cc(par.Default(), g, Schedule{ShortCircuit: true}, 2)
	// Label values may differ; partition must not.
	canon := func(labels []graph.NodeID) map[graph.NodeID]graph.NodeID {
		m := map[graph.NodeID]graph.NodeID{}
		for v, l := range labels {
			if _, ok := m[l]; !ok {
				m[l] = graph.NodeID(v)
			}
		}
		return m
	}
	cp, cs := canon(plain), canon(short)
	for v := range plain {
		if cp[plain[v]] != cs[short[v]] {
			t.Fatalf("partitions differ at vertex %d", v)
		}
	}
}

func TestAutotuneExploresAndPicksBest(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	g, err := generate.Kron(8, 5)
	if err != nil {
		t.Fatal(err)
	}
	var src graph.NodeID
	for g.OutDegree(src) == 0 {
		src++
	}
	for _, k := range []string{"bfs", "sssp", "pr", "cc", "bc"} {
		best, trace := Autotune(g, k, src, 1, 2)
		if len(trace) < 2 {
			t.Fatalf("%s: explored %d points, want >= 2", k, len(trace))
		}
		bestSec := -1.0
		for _, r := range trace {
			if r.Seconds <= 0 {
				t.Fatalf("%s: non-positive trial time", k)
			}
			if bestSec < 0 || r.Seconds < bestSec {
				bestSec = r.Seconds
			}
			if r.Schedule == best && r.Seconds != bestSec {
				// best must correspond to the minimum-time trace entry
				// (ties broken by order; just check it's not worse).
				if r.Seconds > bestSec {
					t.Fatalf("%s: returned schedule is not the fastest", k)
				}
			}
		}
	}
}

func TestVertexSetContainsBothLayouts(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	sp := frontier.FromList(10, []graph.NodeID{2, 7})
	if !sp.Contains(7) || sp.Contains(3) {
		t.Fatal("sparse Contains wrong")
	}
	bv := sp.ToBitmap(par.Default(), 2)
	if !bv.Contains(2) || bv.Contains(0) {
		t.Fatal("bitvector Contains wrong")
	}
}

package main

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"gapbench/internal/core"
	"gapbench/internal/graph"
	"gapbench/internal/kernel"
	"gapbench/internal/serve"
	"gapbench/internal/verify"
)

// prTolerance bounds how far a served PageRank score may sit from the
// oracle's. Both stop once an iteration moves the scores by less than
// PRTolerance in L1, which leaves each within PRTolerance·d/(1−d) of the
// fixed point; two such vectors differ by at most twice that.
const prTolerance = 2 * kernel.PRTolerance * kernel.PRDamping / (1 - kernel.PRDamping)

// oracles answers served queries with the internal/verify oracles on the
// same graphs the daemon serves. PR and CC oracles are kept per graph; a
// BFS or SSSP oracle is kept for one source at a time, and checkAll visits
// queries grouped by source, so each is computed once per source without
// holding thousands of distance arrays.
type oracles struct {
	inputs  []*core.Input
	ranks   map[int][]float64
	sizes   map[int]map[graph.NodeID]int64
	labels  map[int][]graph.NodeID
	bfsKey  [2]int64
	reached int64
	ssspKey [2]int64
	dists   []kernel.Dist
}

func newOracles(inputs []*core.Input) *oracles {
	return &oracles{
		inputs:  inputs,
		ranks:   map[int][]float64{},
		sizes:   map[int]map[graph.NodeID]int64{},
		labels:  map[int][]graph.NodeID{},
		bfsKey:  [2]int64{-1, -1},
		ssspKey: [2]int64{-1, -1},
	}
}

// checkAll checks every OK answer among qs, recording why a wrong one is
// wrong in its query.
func (o *oracles) checkAll(qs []*query) {
	order := slices.Clone(qs)
	slices.SortFunc(order, func(a, b *query) int {
		return cmp.Or(cmp.Compare(a.req.Kernel, b.req.Kernel), cmp.Compare(a.graph, b.graph), cmp.Compare(a.req.Source, b.req.Source))
	})
	for _, q := range order {
		if q.answered && q.resp.Code == serve.CodeOK {
			q.wrong = o.check(q)
		}
	}
}

// check returns why q's OK answer is wrong, or "" when it is right.
func (o *oracles) check(q *query) string {
	g := o.inputs[q.graph].Graph
	res := q.resp.Result
	if res == nil {
		return "OK reply without a result"
	}
	key := [2]int64{int64(q.graph), q.req.Source}
	switch q.req.Kernel {
	case "BFS":
		if o.bfsKey != key {
			o.bfsKey, o.reached = key, 0
			for _, d := range verify.BFSDepths(g, graph.NodeID(q.req.Source)) {
				if d >= 0 {
					o.reached++
				}
			}
		}
		if res.Reached != o.reached {
			return fmt.Sprintf("reached %d, oracle %d", res.Reached, o.reached)
		}
	case "SSSP":
		if o.ssspKey != key {
			o.ssspKey, o.dists = key, verify.Dijkstra(g, graph.NodeID(q.req.Source))
		}
		want := int64(-1)
		if x := o.dists[*q.req.Target]; x != kernel.Inf {
			want = int64(x)
		}
		if res.Dist == nil || *res.Dist != want {
			return fmt.Sprintf("dist %v, oracle %d", distString(res.Dist), want)
		}
	case "PR":
		ranks, ok := o.ranks[q.graph]
		if !ok {
			ranks = verify.PageRank(g, kernel.PRMaxIters, kernel.PRTolerance)
			o.ranks[q.graph] = ranks
		}
		return checkTopK(res.TopK, ranks, q.req.K)
	case "CC":
		sizes, ok := o.sizes[q.graph]
		if !ok {
			labels := verify.Components(g)
			sizes = map[graph.NodeID]int64{}
			for _, l := range labels {
				sizes[l]++
			}
			o.sizes[q.graph], o.labels[q.graph] = sizes, labels
		}
		if want := sizes[o.labels[q.graph][q.req.Vertex]]; res.Size != want {
			return fmt.Sprintf("component size %d, oracle %d", res.Size, want)
		}
	default:
		return "unknown kernel " + q.req.Kernel
	}
	return ""
}

// checkTopK accepts a served top-k when it has k entries in non-increasing
// score order, each score is within prTolerance of the oracle's, and no
// vertex left out outranks one kept by more than the tolerance (so ties
// near the cut may fall either way).
func checkTopK(top []serve.RankEntry, oracle []float64, k int) string {
	k = min(k, len(oracle))
	if len(top) != k {
		return fmt.Sprintf("%d entries, want %d", len(top), k)
	}
	kept := map[int64]bool{}
	lowest := math.Inf(1)
	for i, e := range top {
		if e.V < 0 || e.V >= int64(len(oracle)) || kept[e.V] {
			return fmt.Sprintf("entry %d: bad or repeated vertex %d", i, e.V)
		}
		kept[e.V] = true
		if i > 0 && e.Score > top[i-1].Score {
			return fmt.Sprintf("entry %d: score %g above the previous %g", i, e.Score, top[i-1].Score)
		}
		if math.Abs(e.Score-oracle[e.V]) > prTolerance {
			return fmt.Sprintf("vertex %d: score %g, oracle %g", e.V, e.Score, oracle[e.V])
		}
		lowest = min(lowest, oracle[e.V])
	}
	sorted := slices.Clone(oracle)
	slices.Sort(sorted)
	if kth := sorted[len(sorted)-k]; lowest < kth-2*prTolerance {
		return fmt.Sprintf("kept a vertex with oracle score %g below the k-th best %g", lowest, kth)
	}
	return ""
}

func distString(d *int64) string {
	if d == nil {
		return "absent"
	}
	return fmt.Sprint(*d)
}

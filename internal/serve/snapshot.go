package serve

// snapshot.go is the per-epoch answer store for the source-free kernels. PR
// and CC answer for the whole graph, so their output depends only on the
// framework and the graph's bytes — (framework, graph, kernel, Epoch()) —
// and one verified run can answer every later top-k and component-of query
// for that key.
//
// The first query for a key is a miss and runs the full query path (shed
// gates, lease, sandbox, deadline budget, retry, seal check). Inside the
// sandbox the run builds a snapshot from the kernel's full output, and the
// snapshot is published only after that output passes the internal/verify
// oracle: a wrong answer is never cached. The check runs after the kernel
// has returned its lease, outside the query's deadline budget: it is paid
// once per key, and a budget sized for the kernel must not time out (and
// so never publish) the run that would end the recomputation. Misses that
// overlap each run the kernel; every output they publish has been
// verified, so the last writer wins. A hit re-checks the graph seals and
// (under servecheck) the snapshot's own checksum before answering.

import (
	"sync"

	"gapbench/internal/core"
	"gapbench/internal/graph"
	"gapbench/internal/verify"
)

// maxTopK caps a PR query's k. The PR snapshot keeps exactly this many
// entries, so every servable k is a prefix of it.
const maxTopK = 100

// snapKey identifies one whole-graph answer: the epoch changes whenever the
// graph's bytes do, so a reloaded or regenerated graph of the same name is
// a miss.
type snapKey struct {
	framework string
	graph     string
	kernel    core.Kernel
	epoch     uint64
}

func (p *queryPlan) snapKey() snapKey {
	return snapKey{framework: p.fwName, graph: p.in.Spec.Name, kernel: p.k, epoch: p.in.Graph.Epoch()}
}

// snapshot is one verified whole-graph answer set. It is immutable once
// published and shared by every hit.
type snapshot struct {
	// top is PR's maxTopK best vertices, score descending then vertex
	// ascending — exactly topK(ranks, maxTopK).
	top []RankEntry
	// labels is CC's full label array; sizes counts the members per label.
	labels []graph.NodeID
	sizes  map[graph.NodeID]int64
	// sum is the servecheck checksum taken at publish (zero when unarmed).
	sum uint64
}

// newPRSnapshot verifies a full PR output and keeps its top entries.
func newPRSnapshot(g *graph.Graph, ranks []float64) (*snapshot, error) {
	if err := verify.CheckPR(g, ranks); err != nil {
		return nil, err
	}
	return &snapshot{top: topK(ranks, maxTopK)}, nil
}

// newCCSnapshot verifies a full CC output and tabulates component sizes.
func newCCSnapshot(g *graph.Graph, labels []graph.NodeID) (*snapshot, error) {
	if err := verify.CheckCC(g, labels); err != nil {
		return nil, err
	}
	return &snapshot{labels: labels, sizes: componentSizes(labels)}, nil
}

// componentSizes counts the vertices carrying each label.
func componentSizes(labels []graph.NodeID) map[graph.NodeID]int64 {
	sizes := make(map[graph.NodeID]int64)
	for _, l := range labels {
		sizes[l]++
	}
	return sizes
}

// answer reduces the snapshot to p's result. The returned TopK aliases the
// snapshot; responses only read it.
func (sn *snapshot) answer(p *queryPlan) *QueryResult {
	if p.k == core.PR {
		return &QueryResult{TopK: sn.top[:min(p.topk, len(sn.top))]}
	}
	l := sn.labels[p.vertex]
	return &QueryResult{Component: int64(l), Size: sn.sizes[l]}
}

// snapshotStore holds the published snapshots.
type snapshotStore struct {
	mu    sync.Mutex
	snaps map[snapKey]*snapshot
}

func newSnapshotStore() *snapshotStore {
	return &snapshotStore{snaps: make(map[snapKey]*snapshot)}
}

// get returns the published snapshot for key, or nil.
func (st *snapshotStore) get(key snapKey) *snapshot {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.snaps[key]
}

// publish makes sn the answer for key. Under servecheck it first records
// the checksum every hit re-checks.
func (st *snapshotStore) publish(key snapKey, sn *snapshot) {
	if checkEnabled {
		sn.sum = sn.checksum()
	}
	st.mu.Lock()
	st.snaps[key] = sn
	st.mu.Unlock()
}

package graph

import (
	"errors"
	"fmt"
	"sort"
)

// ErrEdgeOutOfRange reports a delta edge whose endpoint is not a node
// of the graph.
var ErrEdgeOutOfRange = errors.New("graph: delta edge out of range")

// Delta is a batch of edge insertions and deletions against a Graph. The
// node set is fixed: deltas change edges only. Batches are the unit of
// consistency for the incremental-update pipeline — one Delta applied to
// the root graph maps to one dirty-partition recomputation and one store
// snapshot.
type Delta struct {
	Insert [][2]int32
	Delete [][2]int32
}

// Len returns the number of edge operations in the batch.
func (d Delta) Len() int { return len(d.Insert) + len(d.Delete) }

// Effective validates the delta against g and returns the operations
// that actually change the graph, sorted in CSR order and deduplicated:
// inserts of edges g already has, deletes of edges it lacks, and
// self-loops are dropped (the random-surfer model is over simple
// graphs, mirroring Builder). An edge appearing in both lists is an
// error — the intent is ambiguous inside one atomic batch.
func (d Delta) Effective(g *Graph) (ins, del [][2]int32, err error) {
	if g.HasVirtualSink() {
		return nil, nil, fmt.Errorf("graph: cannot update a virtual subgraph")
	}
	n := int32(g.NumNodes())
	check := func(e [2]int32) error {
		if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n {
			return fmt.Errorf("%w: (%d,%d) not in [0,%d)", ErrEdgeOutOfRange, e[0], e[1], n)
		}
		return nil
	}
	// Overlap is checked BEFORE effectiveness filtering: whatever the
	// current edge set, "insert e and delete e in one batch" has no
	// well-defined outcome.
	inserted := make(map[[2]int32]bool, len(d.Insert))
	for _, e := range d.Insert {
		if err := check(e); err != nil {
			return nil, nil, err
		}
		inserted[e] = true
	}
	for _, e := range d.Delete {
		if err := check(e); err != nil {
			return nil, nil, err
		}
		if inserted[e] {
			return nil, nil, fmt.Errorf("graph: edge (%d,%d) both inserted and deleted", e[0], e[1])
		}
	}
	for _, e := range d.Insert {
		if e[0] != e[1] && !g.HasEdge(e[0], e[1]) {
			ins = append(ins, e)
		}
	}
	for _, e := range d.Delete {
		if e[0] != e[1] && g.HasEdge(e[0], e[1]) {
			del = append(del, e)
		}
	}
	return sortDedupEdges(ins), sortDedupEdges(del), nil
}

func edgeLess(a, b [2]int32) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}

func sortDedupEdges(es [][2]int32) [][2]int32 {
	sort.Slice(es, func(i, j int) bool { return edgeLess(es[i], es[j]) })
	out := es[:0]
	for i, e := range es {
		if i == 0 || e != es[i-1] {
			out = append(out, e)
		}
	}
	return out
}

// ApplyDelta applies the batch in place, rebuilding the CSR arrays in
// one merge pass, and bumps the epoch so the lazily-built reverse
// adjacency is invalidated rather than served stale. It returns the
// number of edges actually inserted and deleted (no-ops are skipped,
// see Effective).
//
// Only root graphs (no virtual sink) are mutable; OutWeight tracks the
// structural out-degree, which is exactly what the virtual subgraphs
// re-extracted from the updated graph need.
//
// Concurrency: ApplyDelta must not run concurrently with itself or with
// readers of the adjacency (Out, In, HasEdge, traversals, Validate).
// NumNodes, OutWeight-free query serving — anything reading only the
// pre-computed store — is safe to overlap; the update pipeline in
// internal/core relies on that to keep serving an old snapshot while a
// new one is computed.
func (g *Graph) ApplyDelta(d Delta) (inserted, deleted int, err error) {
	ins, del, err := d.Effective(g)
	if err != nil {
		return 0, 0, err
	}
	if len(ins) == 0 && len(del) == 0 {
		return 0, 0, nil
	}
	newAdj := make([]int32, 0, len(g.adj)+len(ins)-len(del))
	newOff := make([]int32, len(g.offsets))
	ii, di := 0, 0
	for u := int32(0); u < int32(g.n); u++ {
		old := g.adj[g.offsets[u]:g.offsets[u+1]]
		oi := 0
		// Merge the sorted old out-list with the sorted inserts for u,
		// skipping edges marked for deletion. Both streams are strictly
		// sorted, so the merged list stays strictly sorted.
		for oi < len(old) || (ii < len(ins) && ins[ii][0] == u) {
			var v int32
			fromOld := false
			switch {
			case oi >= len(old):
				v = ins[ii][1]
				ii++
			case ii >= len(ins) || ins[ii][0] != u || old[oi] < ins[ii][1]:
				v = old[oi]
				fromOld = true
				oi++
			default:
				v = ins[ii][1]
				ii++
			}
			if fromOld && di < len(del) && del[di][0] == u && del[di][1] == v {
				di++
				continue
			}
			newAdj = append(newAdj, v)
		}
		newOff[u+1] = int32(len(newAdj))
		g.outW[u] = newOff[u+1] - newOff[u]
	}
	g.adj, g.offsets = newAdj, newOff
	g.epoch++
	return len(ins), len(del), nil
}

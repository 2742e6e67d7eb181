// Package partition implements a METIS-style multilevel graph partitioner
// (heavy-edge-matching coarsening, greedy region-growing initial bisection,
// Fiduccia–Mattheyses boundary refinement) plus the paper's hub-node
// selection: the bridging nodes between parts are chosen as a vertex cover
// of the cut edges — minimum via König's theorem for 2-way cuts, greedy
// 2-approximation otherwise (Appendix D).
//
// FM refinement keeps each side's unlocked vertices in an indexed max-heap
// keyed by (gain desc, vertex id asc): a move removes its vertex from its
// heap and re-keys each unlocked neighbour in O(log n), so a pass costs
// O(m log n). The tie-break contract is exact — every move picks the
// lowest-id maximum-gain vertex whose move keeps both sides within the
// balance window, the vertex a scan over all vertices would pick — so
// partitions, and the hierarchies and store files built from them, are a
// pure function of the graph and the seed. Tests pin this against the
// original scan (equiv_test.go), and internal/hierarchy pins the
// benchmark fixture's tree digests (golden_test.go).
package partition

import (
	"slices"

	"exactppr/internal/graph"
)

// ugraph is the undirected weighted working representation used across
// coarsening levels. Vertices carry weights (number of original nodes they
// stand for) and parallel edges are merged with summed weights.
type ugraph struct {
	xadj   []int32 // CSR offsets, len n+1
	adjncy []int32 // neighbor ids
	adjwgt []int32 // edge weights, parallel to adjncy
	vwgt   []int32 // vertex weights, len n
}

func (u *ugraph) numNodes() int { return len(u.vwgt) }

func (u *ugraph) neighbors(v int32) ([]int32, []int32) {
	return u.adjncy[u.xadj[v]:u.xadj[v+1]], u.adjwgt[u.xadj[v]:u.xadj[v+1]]
}

func (u *ugraph) totalWeight() int64 {
	var t int64
	for _, w := range u.vwgt {
		t += int64(w)
	}
	return t
}

// undirectedView collapses a directed graph into the ugraph form: edge
// (a,b) exists when a→b or b→a exists; weight is the number of directed
// edges between the pair (1 or 2). Pairs are deduplicated by sorting
// packed (lo<<32 | hi) keys; filling rows in that order leaves every row
// sorted by neighbour id (row v receives its lower neighbours from pairs
// (lo, v), then its higher ones from pairs (v, hi)), so no per-row sort
// is needed.
func undirectedView(g *graph.Graph) *ugraph {
	n := g.NumNodes()
	keys := make([]uint64, 0, g.NumEdges())
	for a := int32(0); a < int32(n); a++ {
		for _, b := range g.Out(a) {
			lo, hi := min(a, b), max(a, b)
			keys = append(keys, uint64(lo)<<32|uint64(hi))
		}
	}
	slices.Sort(keys)
	// Run-length encode in place: pairs[i] is a distinct pair and wts[i]
	// the number of directed edges behind it.
	pairs := keys[:0]
	var wts []int32
	for _, k := range keys {
		if len(pairs) > 0 && pairs[len(pairs)-1] == k {
			wts[len(wts)-1]++
			continue
		}
		pairs = append(pairs, k)
		wts = append(wts, 1)
	}
	deg := make([]int32, n+1)
	for _, p := range pairs {
		deg[p>>32+1]++
		deg[uint32(p)+1]++
	}
	for i := 0; i < n; i++ {
		deg[i+1] += deg[i]
	}
	adjncy := make([]int32, 2*len(pairs))
	adjwgt := make([]int32, 2*len(pairs))
	next := make([]int32, n)
	copy(next, deg[:n])
	for i, p := range pairs {
		a, b := int32(p>>32), int32(uint32(p))
		adjncy[next[a]] = b
		adjwgt[next[a]] = wts[i]
		next[a]++
		adjncy[next[b]] = a
		adjwgt[next[b]] = wts[i]
		next[b]++
	}
	vwgt := make([]int32, n)
	for i := range vwgt {
		vwgt[i] = 1
	}
	return &ugraph{xadj: deg, adjncy: adjncy, adjwgt: adjwgt, vwgt: vwgt}
}

// sortAdj sorts each adjacency list by id, keeping weights aligned. Sorted
// lists make coarse-graph construction and tests deterministic. Each row
// is sorted as packed (id<<32 | weight) keys in one reused buffer; ids are
// unique within a row, so the order is the id order.
func (u *ugraph) sortAdj() {
	var keys []uint64
	for v := 0; v < u.numNodes(); v++ {
		lo, hi := u.xadj[v], u.xadj[v+1]
		keys = keys[:0]
		for i := lo; i < hi; i++ {
			keys = append(keys, uint64(u.adjncy[i])<<32|uint64(uint32(u.adjwgt[i])))
		}
		slices.Sort(keys)
		for i, k := range keys {
			u.adjncy[int(lo)+i] = int32(k >> 32)
			u.adjwgt[int(lo)+i] = int32(uint32(k))
		}
	}
}

// cutWeight returns the total weight of edges crossing the bisection
// defined by side (0/1 per vertex).
func (u *ugraph) cutWeight(side []int8) int64 {
	var cut int64
	for v := int32(0); v < int32(u.numNodes()); v++ {
		nbrs, wts := u.neighbors(v)
		for i, nb := range nbrs {
			if nb > v && side[nb] != side[v] {
				cut += int64(wts[i])
			}
		}
	}
	return cut
}

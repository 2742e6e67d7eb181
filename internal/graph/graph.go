// Package graph implements the directed-graph substrate for the exact
// distributed PPV algorithms: a compact CSR representation, builders,
// subgraph extraction, and the paper's virtual subgraphs (Definition 3),
// which preserve original out-degrees so that local PPVs equal partial
// vectors (Theorem 2).
package graph

import (
	"fmt"
	"sort"
	"sync"
)

// Graph is an immutable directed graph over nodes 0..N-1 in CSR
// (compressed sparse row) layout. Build one with a Builder or the loaders
// in this package; once constructed it never changes. An edge-delta
// batch yields a new graph (ApplyDelta) and leaves its receiver as it was.
//
// Each node carries an "OutWeight": the out-degree used when computing
// random-walk transition probabilities. For an ordinary graph OutWeight
// equals the structural out-degree. For a virtual subgraph it equals the
// node's out-degree in the ORIGINAL graph, which may exceed the number of
// retained out-edges; the missing probability mass flows to the virtual
// sink and dies there (tours that leave the subgraph never return).
type Graph struct {
	n       int     // node count
	offsets []int32 // len N+1; out-edges of u are adj[offsets[u]:offsets[u+1]]
	adj     []int32
	outW    []int32 // transition denominator per node (see doc above)
	virtual int32   // id of the virtual sink, or -1 when the graph has none
	epoch   uint64  // edge-delta batches between the built graph and this one

	// The reverse adjacency, built on first use (BuildReverse).
	inMu  sync.Mutex
	inOff []int32
	inAdj []int32
}

// NumNodes returns N, including the virtual sink when present. Edge
// deltas never change the node set, so every graph ApplyDelta derives
// has the same N.
func (g *Graph) NumNodes() int { return g.n }

// Epoch returns the number of edge-delta batches between the built
// graph and this one. A freshly built graph is at epoch 0.
func (g *Graph) Epoch() uint64 { return g.epoch }

// NumEdges returns the number of directed edges stored.
func (g *Graph) NumEdges() int { return len(g.adj) }

// Out returns the out-neighbors of u. The returned slice aliases internal
// storage and must not be modified.
func (g *Graph) Out(u int32) []int32 { return g.adj[g.offsets[u]:g.offsets[u+1]] }

// OutDegree returns the number of stored out-edges of u.
func (g *Graph) OutDegree(u int32) int { return int(g.offsets[u+1] - g.offsets[u]) }

// OutWeight returns the random-walk transition denominator of u: the
// original out-degree for virtual subgraphs, the structural out-degree
// otherwise. It is 0 only for true dangling nodes.
func (g *Graph) OutWeight(u int32) int { return int(g.outW[u]) }

// In returns the in-neighbors of u, from the reverse adjacency built on
// first use (see BuildReverse). Safe for concurrent use.
func (g *Graph) In(u int32) []int32 {
	g.BuildReverse()
	return g.inAdj[g.inOff[u]:g.inOff[u+1]]
}

// InLists returns the reverse adjacency in raw CSR form: the in-edges of
// u are adj[off[u]:off[u+1]]. Unlike In, the per-call mutex is paid once
// here instead of on every lookup, which is what the sparse-frontier
// reverse-push kernel needs — its inner loop reads one in-list per
// residual pop. The slices alias internal storage (read-only) and stay
// valid for the life of the graph.
func (g *Graph) InLists() (off, adj []int32) {
	g.BuildReverse()
	return g.inOff, g.inAdj
}

// BuildReverse materializes the reverse adjacency (in-edges) once per
// graph: a graph never changes, so neither does its reverse. Safe for
// concurrent use; only the first call does work.
func (g *Graph) BuildReverse() {
	g.inMu.Lock()
	defer g.inMu.Unlock()
	if g.inOff == nil {
		g.inOff, g.inAdj = g.Reverse()
	}
}

// Reverse returns the reverse adjacency in CSR form, as InLists does,
// but computes it afresh and does not keep it: for a one-off pass over
// in-edges that should leave no heap behind.
func (g *Graph) Reverse() (off, adj []int32) {
	n := g.NumNodes()
	cnt := make([]int32, n+1)
	for _, v := range g.adj {
		cnt[v+1]++
	}
	for i := 0; i < n; i++ {
		cnt[i+1] += cnt[i]
	}
	inAdj := make([]int32, len(g.adj))
	next := make([]int32, n)
	copy(next, cnt[:n])
	for u := int32(0); u < int32(n); u++ {
		for _, v := range g.Out(u) {
			inAdj[next[v]] = u
			next[v]++
		}
	}
	return cnt, inAdj
}

// ResidentBytes is the heap the graph's arrays take: the CSR out-edges,
// the transition denominators and, once built, the reverse adjacency.
func (g *Graph) ResidentBytes() int64 {
	g.inMu.Lock()
	defer g.inMu.Unlock()
	return 4 * int64(cap(g.offsets)+cap(g.adj)+cap(g.outW)+cap(g.inOff)+cap(g.inAdj))
}

// HasVirtualSink reports whether the graph carries a virtual sink node.
func (g *Graph) HasVirtualSink() bool { return g.virtual >= 0 }

// VirtualSink returns the virtual sink id, or -1 when there is none.
func (g *Graph) VirtualSink() int32 { return g.virtual }

// IsVirtual reports whether u is the virtual sink of this graph.
func (g *Graph) IsVirtual(u int32) bool { return g.virtual >= 0 && u == g.virtual }

// HasEdge reports whether the edge (u, v) exists. Out-lists are sorted, so
// this is a binary search.
func (g *Graph) HasEdge(u, v int32) bool {
	out := g.Out(u)
	i := sort.Search(len(out), func(i int) bool { return out[i] >= v })
	return i < len(out) && out[i] == v
}

// Validate checks structural invariants and returns the first violation.
func (g *Graph) Validate() error {
	n := int32(g.NumNodes())
	if g.offsets[0] != 0 || int(g.offsets[n]) != len(g.adj) {
		return fmt.Errorf("graph: bad offsets bounds")
	}
	for u := int32(0); u < n; u++ {
		if g.offsets[u] > g.offsets[u+1] {
			return fmt.Errorf("graph: offsets not monotone at node %d", u)
		}
		out := g.Out(u)
		for i, v := range out {
			if v < 0 || v >= n {
				return fmt.Errorf("graph: edge (%d,%d) out of range", u, v)
			}
			if i > 0 && out[i-1] >= v {
				return fmt.Errorf("graph: out-list of %d not strictly sorted", u)
			}
		}
		if int(g.outW[u]) < len(out) {
			return fmt.Errorf("graph: node %d OutWeight %d < stored degree %d", u, g.outW[u], len(out))
		}
	}
	if g.virtual >= n {
		return fmt.Errorf("graph: virtual sink %d out of range", g.virtual)
	}
	return nil
}

// Builder accumulates edges and produces an immutable Graph. Duplicate
// edges and self-loops are dropped at Build time (the paper's random-surfer
// model is over simple directed graphs).
type Builder struct {
	n     int
	edges [][2]int32
}

// NewBuilder returns a builder for a graph with n nodes.
func NewBuilder(n int) *Builder { return &Builder{n: n} }

// AddEdge records the directed edge (u, v). Ids outside [0, n) panic:
// that is a programming error, not an input error (loaders validate input).
func (b *Builder) AddEdge(u, v int32) {
	if u < 0 || int(u) >= b.n || v < 0 || int(v) >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	b.edges = append(b.edges, [2]int32{u, v})
}

// Build finalizes the graph. The builder may be reused afterwards only by
// calling Reset.
func (b *Builder) Build() *Graph { return b.BuildAtEpoch(0) }

// BuildAtEpoch is Build for a graph that has already absorbed epoch
// edge-delta batches: a store file records its graph's epoch, and the
// graph read back from it resumes counting there.
func (b *Builder) BuildAtEpoch(epoch uint64) *Graph {
	sort.Slice(b.edges, func(i, j int) bool {
		if b.edges[i][0] != b.edges[j][0] {
			return b.edges[i][0] < b.edges[j][0]
		}
		return b.edges[i][1] < b.edges[j][1]
	})
	offsets := make([]int32, b.n+1)
	adj := make([]int32, 0, len(b.edges))
	var prev [2]int32 = [2]int32{-1, -1}
	for _, e := range b.edges {
		if e == prev || e[0] == e[1] {
			continue // duplicate or self-loop
		}
		prev = e
		adj = append(adj, e[1])
		offsets[e[0]+1]++
	}
	for i := 0; i < b.n; i++ {
		offsets[i+1] += offsets[i]
	}
	outW := make([]int32, b.n)
	for u := 0; u < b.n; u++ {
		outW[u] = offsets[u+1] - offsets[u]
	}
	return &Graph{n: b.n, offsets: offsets, adj: adj, outW: outW, virtual: -1, epoch: epoch}
}

// Reset clears accumulated edges keeping capacity.
func (b *Builder) Reset() { b.edges = b.edges[:0] }

// FromAdjacency builds a graph from an adjacency-list description; handy in
// tests. adj[u] lists the out-neighbors of u.
func FromAdjacency(adj [][]int32) *Graph {
	b := NewBuilder(len(adj))
	for u, outs := range adj {
		for _, v := range outs {
			b.AddEdge(int32(u), v)
		}
	}
	return b.Build()
}

package graph

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// ErrEdgeOutOfRange reports a delta edge whose endpoint is not a node
// of the graph.
var ErrEdgeOutOfRange = errors.New("graph: delta edge out of range")

// Delta is a batch of edge insertions and deletions against a Graph. The
// node set is fixed: deltas change edges only. Batches are the unit of
// consistency for the incremental-update pipeline — one Delta maps a
// graph to the next one, one dirty-partition recomputation and one
// store snapshot.
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
	if ins, del, err = d.normalize(g); err != nil {
		return nil, nil, err
	}
	ins = slices.DeleteFunc(ins, func(e [2]int32) bool { return g.HasEdge(e[0], e[1]) })
	del = slices.DeleteFunc(del, func(e [2]int32) bool { return !g.HasEdge(e[0], e[1]) })
	return ins, del, nil
}

// normalize validates the delta against g and returns copies of its
// lists sorted in CSR order, deduplicated and without self-loops.
func (d Delta) normalize(g *Graph) (ins, del [][2]int32, err error) {
	if g.HasVirtualSink() {
		return nil, nil, fmt.Errorf("graph: cannot update a virtual subgraph")
	}
	n := int32(g.NumNodes())
	for _, es := range [2][][2]int32{d.Insert, d.Delete} {
		for _, e := range es {
			if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n {
				return nil, nil, fmt.Errorf("%w: (%d,%d) not in [0,%d)", ErrEdgeOutOfRange, e[0], e[1], n)
			}
		}
	}
	ins, del = sortDedupEdges(d.Insert), sortDedupEdges(d.Delete)
	// Overlap is checked BEFORE effectiveness filtering: whatever the
	// current edge set, "insert e and delete e in one batch" has no
	// well-defined outcome.
	for i, j := 0, 0; i < len(ins) && j < len(del); {
		switch c := edgeCmp(ins[i], del[j]); {
		case c == 0:
			return nil, nil, fmt.Errorf("graph: edge (%d,%d) both inserted and deleted", ins[i][0], ins[i][1])
		case c < 0:
			i++
		default:
			j++
		}
	}
	selfLoop := func(e [2]int32) bool { return e[0] == e[1] }
	return slices.DeleteFunc(ins, selfLoop), slices.DeleteFunc(del, selfLoop), nil
}

func edgeCmp(a, b [2]int32) int {
	if c := cmp.Compare(a[0], b[0]); c != 0 {
		return c
	}
	return cmp.Compare(a[1], b[1])
}

// sortDedupEdges returns the edges of es in CSR order, each once, in a
// fresh slice.
func sortDedupEdges(es [][2]int32) [][2]int32 {
	out := slices.Clone(es)
	slices.SortFunc(out, edgeCmp)
	return slices.Compact(out)
}

// ApplyDelta returns the graph with the batch applied: a new graph one
// epoch on, with fresh CSR arrays built in one merge pass. The receiver
// never changes, so every snapshot that holds it keeps reading the edge
// set it was computed from. Operations that would not change the graph
// are skipped (see Effective), and a batch with none that would returns
// the receiver itself. inserted and deleted count the operations that
// took effect.
//
// Only root graphs (no virtual sink) take deltas; OutWeight tracks the
// structural out-degree, which is exactly what the virtual subgraphs
// re-extracted from the new graph need.
func (g *Graph) ApplyDelta(d Delta) (next *Graph, inserted, deleted int, err error) {
	ins, del, err := d.normalize(g)
	if err != nil {
		return nil, 0, 0, err
	}
	if len(ins) == 0 && len(del) == 0 {
		return g, 0, 0, nil
	}
	next = &Graph{
		n:       g.n,
		offsets: make([]int32, g.n+1),
		adj:     make([]int32, 0, len(g.adj)+len(ins)),
		outW:    make([]int32, g.n),
		virtual: -1,
		epoch:   g.epoch + 1,
	}
	// Merge each sorted out-list with the sorted inserts for its node,
	// dropping inserts of present edges and the edges marked for
	// deletion; deletes of absent edges are passed over.
	ii, di := 0, 0
	for u := int32(0); u < int32(g.n); u++ {
		for _, v := range g.Out(u) {
			e := [2]int32{u, v}
			for ; ii < len(ins) && edgeCmp(ins[ii], e) < 0; ii++ {
				next.adj = append(next.adj, ins[ii][1])
				inserted++
			}
			if ii < len(ins) && ins[ii] == e {
				ii++
			}
			for di < len(del) && edgeCmp(del[di], e) < 0 {
				di++
			}
			if di < len(del) && del[di] == e {
				di++
				deleted++
				continue
			}
			next.adj = append(next.adj, v)
		}
		for ; ii < len(ins) && ins[ii][0] == u; ii++ {
			next.adj = append(next.adj, ins[ii][1])
			inserted++
		}
		next.offsets[u+1] = int32(len(next.adj))
		next.outW[u] = next.offsets[u+1] - next.offsets[u]
	}
	if inserted == 0 && deleted == 0 {
		return g, 0, 0, nil
	}
	return next, inserted, deleted, nil
}

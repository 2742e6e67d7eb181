package hierarchy

import (
	"encoding/binary"
	"fmt"

	"exactppr/internal/graph"
)

// The tree section of a store file. The hierarchy is written out rather
// than rebuilt from the graph: an update-maintained tree (hub promotions,
// dropped nodes) is a function of its delta history, not of the final
// graph, and re-partitioning would be most of a store's open time.
//
// Layout (little-endian int32s throughout):
//
//	count, nextRank
//	count × node, in pre-order:
//	    parent     index of the parent node; -1 for the root (index 0)
//	    hubs       number of hub records
//	    leaf       number of non-hub member records (0 for an internal node)
//	    hubs × (hub id, deal rank), ids ascending
//	    leaf × member id, ascending
//
// Levels, Home, HubLevel and member counts follow from these: a node's
// members are the ids homed in its subtree.

// nodeRecordLen is the smallest node record: parent and two counts.
const nodeRecordLen = 12

// maxMeanDepth bounds the work of a tree. Deriving the members of
// every node costs one step per (id, tree node holding it), and
// Validate that plus one step per (out-edge, tree node holding its
// tail) — never a walk from an edge's head, which a tree of empty chain
// nodes above a leaf could make deep for every edge at once; a tree
// section only lists homes, so for a deep chain that work grows with the
// square of the section's length (a 72 KB chain once derived 69 MB of
// member lists). A tree whose ids and edges lie on more than
// maxMeanDepth tree nodes on average is neither written nor read. Build's trees lie far below it:
// 8.4 on the 12,000-node web×1 fixture, whose tree is 12 levels deep.
const maxMeanDepth = 64

// meanDepth is the number of tree nodes each id and each out-edge lies
// on, on average: the work bounded by maxMeanDepth, per id and edge.
func (h *Hierarchy) meanDepth() float64 {
	var work int64
	for u := range int32(h.G.NumNodes()) {
		work += int64(h.G.OutDegree(u)+1) * int64(h.Home(u).Level+1)
	}
	return float64(work) / float64(h.G.NumNodes()+h.G.NumEdges())
}

// AppendTree appends h's tree section to b. It refuses a tree deeper
// than a store file may hold (see maxMeanDepth).
func (h *Hierarchy) AppendTree(b []byte) ([]byte, error) {
	if d := h.meanDepth(); d > maxMeanDepth {
		return nil, fmt.Errorf("hierarchy: cannot store a tree whose ids lie on %.1f tree nodes on average (at most %d)", d, maxMeanDepth)
	}
	put := func(x int32) { b = binary.LittleEndian.AppendUint32(b, uint32(x)) }
	put(int32(len(h.nodes)))
	put(h.nextRank)
	// path holds the chain from the root to the previous node, as
	// (node, index) pairs: in pre-order a node's parent is on it.
	type step struct {
		n *Node
		i int32
	}
	var path []step
	for i, n := range h.nodes {
		parent := int32(-1)
		for len(path) > 0 && path[len(path)-1].n != n.Parent {
			path = path[:len(path)-1]
		}
		if len(path) > 0 {
			parent = path[len(path)-1].i
		}
		path = append(path, step{n, int32(i)})
		put(parent)
		put(int32(len(n.Hubs)))
		put(int32(len(n.leaf)))
		for _, x := range n.Hubs {
			put(x)
			put(h.rank[x])
		}
		for _, x := range n.leaf {
			put(x)
		}
	}
	return b, nil
}

// ParseTree reads a tree section written by AppendTree from the front of
// data, for root graph g and the options the tree was built with, and
// returns the hierarchy and the number of bytes it read. Every count is
// bounded by the bytes left before anything is allocated from it; a
// section that breaks the layout, names an id outside g or homes one
// twice or never, holds a tree deeper than maxMeanDepth allows, or
// whose tree fails Validate, is an error wrapping ErrInvalidTree.
func ParseTree(data []byte, g *graph.Graph, opts Options) (*Hierarchy, int, error) {
	n := g.NumNodes()
	off := 0
	i32 := func() int32 {
		x := int32(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		return x
	}
	if n == 0 {
		return nil, 0, invalidTree("empty graph")
	}
	if len(data) < 8 {
		return nil, 0, invalidTree("section truncated at %d bytes", len(data))
	}
	count, nextRank := int(i32()), i32()
	if maxCount := (len(data) - off) / nodeRecordLen; count < 1 || count > maxCount {
		return nil, 0, invalidTree("node count %d outside [1,%d]", count, maxCount)
	}
	if nextRank < 0 || int(nextRank) > n {
		return nil, 0, invalidTree("%d deal ranks for %d nodes", nextRank, n)
	}
	h := &Hierarchy{
		G:        g,
		Opts:     opts,
		nodes:    make([]*Node, count),
		home:     make([]int32, n),
		hubLevel: make([]int32, n),
		rank:     make([]int32, n),
		nextRank: nextRank,
	}
	for u := range n {
		h.home[u], h.hubLevel[u], h.rank[u] = -1, -1, -1
	}
	slab := make([]Node, count)
	// Every node's hubs and every leaf's members, each in one array.
	hubIDs := make([]int32, 0, nextRank)
	leafMembers := make([]int32, 0, max(n-int(nextRank), 0))
	// id reads one node id that ascends after prev and is homed nowhere
	// yet, and homes it at nd.
	id := func(nd *Node, prev int32) (int32, error) {
		x := i32()
		if x < 0 || int(x) >= n || x <= prev {
			return 0, invalidTree("node %d: id %d after %d is not an ascending id below %d", nd.ID, x, prev, n)
		}
		if h.home[x] >= 0 {
			return 0, invalidTree("node %d: id %d already homed at node %d", nd.ID, x, h.home[x])
		}
		h.home[x] = nd.ID // nd's position in nodes
		return x, nil
	}
	kids := make([]int, count)
	var path []int32 // indexes of the root-to-previous-node chain
	for i := range slab {
		nd := &slab[i]
		nd.ID = int32(i)
		h.nodes[i] = nd
		if len(data)-off < nodeRecordLen {
			return nil, 0, invalidTree("node %d truncated", i)
		}
		parent, hubs, leaf := int(i32()), int(i32()), int(i32())
		if i == 0 && parent != -1 || i > 0 && (parent < 0 || parent >= i) {
			return nil, 0, invalidTree("node %d: parent index %d not before it", i, parent)
		}
		for len(path) > 0 && int(path[len(path)-1]) != parent {
			path = path[:len(path)-1]
		}
		if i > 0 {
			if len(path) == 0 {
				return nil, 0, invalidTree("node %d: parent %d is not an ancestor of node %d (not pre-order)", i, parent, i-1)
			}
			p := &slab[parent]
			if p.leaf != nil {
				return nil, 0, invalidTree("node %d has leaf members and child %d", parent, i)
			}
			nd.Parent, nd.Level = p, p.Level+1
			kids[parent]++
		}
		path = append(path, int32(i))
		if left := len(data) - off; hubs < 0 || hubs > left/8 || leaf < 0 || leaf > (left-8*hubs)/4 {
			return nil, 0, invalidTree("node %d: %d hubs and %d leaf members in %d bytes", i, hubs, leaf, left)
		}
		prev := int32(-1)
		start := len(hubIDs)
		for range hubs {
			x, err := id(nd, prev)
			if err != nil {
				return nil, 0, err
			}
			r := i32()
			if r < 0 || r >= nextRank {
				return nil, 0, invalidTree("hub %d: deal rank %d outside [0,%d)", x, r, nextRank)
			}
			hubIDs = append(hubIDs, x)
			h.hubLevel[x], h.rank[x] = int32(nd.Level), r
			prev = x
		}
		nd.Hubs = hubIDs[start:len(hubIDs):len(hubIDs)]
		prev = -1
		start = len(leafMembers)
		for range leaf {
			x, err := id(nd, prev)
			if err != nil {
				return nil, 0, err
			}
			leafMembers = append(leafMembers, x)
			prev = x
		}
		if leaf > 0 {
			nd.leaf = leafMembers[start:len(leafMembers):len(leafMembers)]
		}
	}
	for u := range n {
		if h.home[u] < 0 {
			return nil, 0, invalidTree("node id %d is in no tree node", u)
		}
	}
	if d := h.meanDepth(); d > maxMeanDepth {
		return nil, 0, invalidTree("ids lie on %.1f tree nodes on average (at most %d)", d, maxMeanDepth)
	}
	// Children share one array, in pre-order. A node's member count is
	// what it lists plus its children's counts; in reverse pre-order
	// every child is counted before its parent.
	children := make([]*Node, count-1)
	for i, nd := range h.nodes {
		nd.Children, children = children[:0:kids[i]], children[kids[i]:]
	}
	for _, nd := range h.nodes[1:] {
		nd.Parent.Children = append(nd.Parent.Children, nd)
	}
	for i := count - 1; i >= 0; i-- {
		nd := h.nodes[i]
		nd.size += int32(len(nd.Hubs) + len(nd.leaf))
		if nd.Parent != nil {
			nd.Parent.size += nd.size
		}
	}
	h.Root = h.nodes[0]
	if err := h.Validate(); err != nil {
		return nil, 0, err
	}
	return h, off, nil
}

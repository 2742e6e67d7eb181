// Package hierarchy builds the paper's recursive graph hierarchy (§4.2,
// Figures 6–7): the root is the whole graph; each non-leaf subgraph is
// split into `fanout` parts by the multilevel partitioner, the bridging
// nodes are selected as hub nodes (König minimum vertex cover of the cut
// for 2-way splits), and — crucially — once a node becomes a hub it is
// removed from every deeper level. Partitioning recurses until a subgraph
// has no internal edges, is too small, or the configured level cap is hit.
//
// The hierarchy also supports incremental maintenance under edge deltas:
// ApplyDelta maps a batch to the dirty tree nodes — exactly the
// root-to-home chains of the edge tails — and repairs the separator
// property by hub promotion instead of re-partitioning. See the Update
// type in update.go for the full dirty-set semantics.
package hierarchy

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"exactppr/internal/graph"
	"exactppr/internal/partition"
)

// Options tunes hierarchy construction.
type Options struct {
	// Fanout is the number of parts per split (paper default 2; §6.2.5
	// evaluates 4/8/16/64).
	Fanout int
	// MaxLevels caps the number of partitioning levels; 0 means partition
	// until no internal edges remain (the paper's default policy).
	MaxLevels int
	// MinSize stops splitting subgraphs with at most this many members
	// (0 defaults to max(24, 2·Fanout)). Splitting very small dense
	// subgraphs turns half their members into hubs for no space gain, so
	// the floor matters; §6.2.4's "further partitioning cannot reduce
	// space any more" observation is the same effect.
	MinSize int
	// Imbalance is passed through to the partitioner. It must be finite
	// and at most 1 (see Validate).
	Imbalance float64
	// Seed drives deterministic partitioning.
	Seed int64
}

// Validate rejects options no hierarchy can be built from: an Imbalance
// that is NaN, infinite or above 1. The partitioner bounds a part's
// weight by target·(1±Imbalance); for such a value that bound overflows
// or goes negative, and the bisection keeps the subgraph whole.
func (o Options) Validate() error {
	if math.IsNaN(o.Imbalance) || math.IsInf(o.Imbalance, 0) || o.Imbalance > 1 {
		return fmt.Errorf("hierarchy: imbalance %v is not a finite value of at most 1", o.Imbalance)
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.Fanout <= 0 {
		o.Fanout = 2
	}
	if o.MinSize <= 0 {
		o.MinSize = max(24, 2*o.Fanout)
	}
	return o
}

// Node is one subgraph in the hierarchy.
type Node struct {
	// ID is the node's pre-order index in the tree Build (or ParseTree)
	// made. Updates keep it when they drop emptied nodes, so it stays
	// unique and ascending in pre-order but may leave gaps.
	ID int
	// Level is the depth: 0 for the root (the graph G itself).
	Level int
	// Members are the global ids belonging to this subgraph, INCLUDING
	// its own hub nodes but excluding every ancestor's hubs. Sorted. The
	// tree keeps no subgraph: the pre-computation extracts the virtual
	// subgraph over Members (graph.VirtualSubgraph, Definition 3) from
	// the root graph as it is when it computes the node's vectors.
	Members []int32
	// Hubs are the hub nodes selected when splitting this subgraph
	// (H(G_m^i) in the paper). Empty for leaves. Sorted.
	Hubs     []int32
	Parent   *Node
	Children []*Node
}

// IsLeaf reports whether the node was not split further.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// Hierarchy is the full tree plus per-node indexes.
type Hierarchy struct {
	G    *graph.Graph
	Root *Node
	Opts Options

	nodes    []*Node // all tree nodes in pre-order
	home     []*Node // per global node: the deepest tree node containing it
	hubLevel []int32 // per global node: level where it became a hub, or -1
	// rank is each hub's deal rank, or -1 (see DealRank); nextRank is
	// the rank the next newly promoted hub receives.
	rank     []int32
	nextRank int32
}

// Build constructs the hierarchy for g.
func Build(g *graph.Graph, opts Options) (*Hierarchy, error) {
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("hierarchy: empty graph")
	}
	if g.HasVirtualSink() {
		return nil, fmt.Errorf("hierarchy: root graph must not have a virtual sink")
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	h := &Hierarchy{
		G:        g,
		Opts:     opts,
		home:     make([]*Node, g.NumNodes()),
		hubLevel: make([]int32, g.NumNodes()),
		rank:     make([]int32, g.NumNodes()),
	}
	for i := range h.hubLevel {
		h.hubLevel[i] = -1
		h.rank[i] = -1
	}
	all := make([]int32, g.NumNodes())
	for i := range all {
		all[i] = int32(i)
	}
	var err error
	h.Root, err = h.build(all, 0, nil, opts.Seed)
	if err != nil {
		return nil, err
	}
	return h, nil
}

func (h *Hierarchy) build(members []int32, level int, parent *Node, seed int64) (*Node, error) {
	n := &Node{
		ID:      len(h.nodes),
		Level:   level,
		Members: members,
		Parent:  parent,
	}
	h.nodes = append(h.nodes, n)
	for _, m := range members {
		h.home[m] = n
	}

	if !h.maySplit(n) {
		return n, nil
	}
	induced := graph.InducedSubgraph(h.G, members)
	if induced.G.NumEdges() == 0 {
		return n, nil // the paper's "no internal edges" stopping rule
	}
	parts, err := partition.Partition(induced.G, h.Opts.Fanout, partition.Options{
		Imbalance: h.Opts.Imbalance,
		Seed:      seed,
	})
	if err != nil {
		return nil, fmt.Errorf("hierarchy: level %d: %w", level, err)
	}
	hubLocal := partition.HubNodes(induced.G, parts, h.Opts.Fanout)
	for l := range hubLocal {
		gid := induced.Parent(l)
		n.Hubs = append(n.Hubs, gid)
		h.hubLevel[gid] = int32(level)
		h.home[gid] = n
	}
	sort.Slice(n.Hubs, func(i, j int) bool { return n.Hubs[i] < n.Hubs[j] })
	// Nodes are built in pre-order, so ranks follow Nodes()×Hubs order.
	for _, gid := range n.Hubs {
		h.rank[gid] = h.nextRank
		h.nextRank++
	}

	childMembers := make([][]int32, h.Opts.Fanout)
	for l, p := range parts {
		if hubLocal[int32(l)] {
			continue
		}
		childMembers[p] = append(childMembers[p], induced.Parent(int32(l)))
	}
	for i, cm := range childMembers {
		if len(cm) == 0 {
			continue
		}
		if len(cm) == len(members) {
			// The split selected no hub and kept every member in one part
			// (fanout 1 does nothing else): recursing would repeat this
			// node at every level, so it stays a leaf.
			return n, nil
		}
		child, err := h.build(cm, level+1, n, seed*31+int64(i)+1)
		if err != nil {
			return nil, err
		}
		n.Children = append(n.Children, child)
	}
	return n, nil
}

// maySplit applies the stopping rules that need no subgraph: the level
// cap and the size floor.
func (h *Hierarchy) maySplit(n *Node) bool {
	if h.Opts.MaxLevels > 0 && n.Level >= h.Opts.MaxLevels {
		return false
	}
	return len(n.Members) > h.Opts.MinSize
}

// Nodes returns every tree node in pre-order.
func (h *Hierarchy) Nodes() []*Node { return h.nodes }

// Leaves returns the leaf subgraphs.
func (h *Hierarchy) Leaves() []*Node {
	var out []*Node
	for _, n := range h.nodes {
		if n.IsLeaf() {
			out = append(out, n)
		}
	}
	return out
}

// Home returns the deepest tree node containing u: the leaf subgraph for
// a non-hub node, the subgraph where it was selected for a hub.
func (h *Hierarchy) Home(u int32) *Node { return h.home[u] }

// IsHub reports whether u was selected as a hub at any level.
func (h *Hierarchy) IsHub(u int32) bool { return h.hubLevel[u] >= 0 }

// HubLevel returns the level at which u became a hub, or -1.
func (h *Hierarchy) HubLevel(u int32) int { return int(h.hubLevel[u]) }

// DealRank returns hub u's position in the order hubs are dealt to
// machines, or -1 for a non-hub. Build ranks hubs in Nodes()×Hubs
// order; ApplyDelta gives a newly promoted hub the next unused rank,
// and a hub promoted to a higher level keeps its rank, so the rank of
// an existing hub never changes across updates.
func (h *Hierarchy) DealRank(u int32) int { return int(h.rank[u]) }

// Path returns the chain of tree nodes containing u, from the root down
// to Home(u).
func (h *Hierarchy) Path(u int32) []*Node {
	var rev []*Node
	for n := h.home[u]; n != nil; n = n.Parent {
		rev = append(rev, n)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Depth returns the number of levels (leaf level index + 1... the maximum
// Level among nodes plus one).
func (h *Hierarchy) Depth() int {
	d := 0
	for _, n := range h.nodes {
		if n.Level+1 > d {
			d = n.Level + 1
		}
	}
	return d
}

// HubsPerLevel aggregates hub counts by level — the numbers of
// Tables 2–5 in the paper.
func (h *Hierarchy) HubsPerLevel() []int {
	counts := make([]int, h.Depth())
	for _, n := range h.nodes {
		if len(n.Hubs) > 0 {
			counts[n.Level] += len(n.Hubs)
		}
	}
	// Trim trailing zero levels (leaves have no hubs).
	for len(counts) > 0 && counts[len(counts)-1] == 0 {
		counts = counts[:len(counts)-1]
	}
	return counts
}

// TotalHubs returns the number of hub nodes across all levels.
func (h *Hierarchy) TotalHubs() int {
	t := 0
	for _, c := range h.HubsPerLevel() {
		t += c
	}
	return t
}

// ErrInvalidTree reports a tree that breaks one of the hierarchy's
// invariants: Validate's and ParseTree's errors wrap it.
var ErrInvalidTree = errors.New("hierarchy: invalid tree")

func invalidTree(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrInvalidTree}, args...)...)
}

// Validate checks the structural invariants of the hierarchy and returns
// the first violation, wrapping ErrInvalidTree:
//
//  1. every node's Members and Hubs are sorted id sets, and its hubs are
//     members;
//  2. every node's children partition Members∖Hubs, and a leaf holds
//     either hubs or non-hub members, not both;
//  3. hub sets separate the child member sets within the node's induced
//     subgraph (the exactness precondition of Theorems 1–3): no edge
//     joins members of two different children;
//  4. deal ranks are unique, below nextRank, and held by hubs alone;
//  5. Home/HubLevel indexes agree with the tree.
//
// It runs in O((n + m)·depth) with two arrays over the node ids: one
// pass over each node's members and their out-edges.
func (h *Hierarchy) Validate() error {
	n := int32(h.G.NumNodes())
	// mark[u] records what the tree node with pre-order index i last
	// made of u: 3i+1 a member, 3i+2 a hub, 3i+3 a member of the child
	// part[u]. Every node has tokens of its own, so nothing is reset.
	mark := make([]int, n)
	part := make([]int32, n)
	for i, nd := range h.nodes {
		member, hub, claimed := 3*i+1, 3*i+2, 3*i+3
		for k, m := range nd.Members {
			if m < 0 || m >= n || k > 0 && m <= nd.Members[k-1] {
				return invalidTree("node %d: members not a sorted id set at %d", nd.ID, m)
			}
			mark[m] = member
		}
		for k, hb := range nd.Hubs {
			if hb < 0 || hb >= n || mark[hb] != member || k > 0 && hb <= nd.Hubs[k-1] {
				return invalidTree("node %d: hub %d not a member (or hubs not sorted)", nd.ID, hb)
			}
			mark[hb] = hub
		}
		if nd.IsLeaf() {
			if len(nd.Hubs) > 0 && len(nd.Members) > len(nd.Hubs) {
				return invalidTree("leaf %d has hubs and members", nd.ID)
			}
			continue
		}
		children := 0
		for ci, c := range nd.Children {
			for _, m := range c.Members {
				if m < 0 || m >= n || mark[m] != member && mark[m] != claimed {
					return invalidTree("node %d: child member %d invalid", nd.ID, m)
				}
				if mark[m] == claimed {
					return invalidTree("node %d: member %d in two children", nd.ID, m)
				}
				mark[m], part[m] = claimed, int32(ci)
				children++
			}
		}
		if children+len(nd.Hubs) != len(nd.Members) {
			return invalidTree("node %d: children+hubs ≠ members (%d+%d ≠ %d)",
				nd.ID, children, len(nd.Hubs), len(nd.Members))
		}
		// Separator property: an undirected path between two children
		// that avoids the hubs crosses some edge between them.
		for _, a := range nd.Members {
			if mark[a] != claimed {
				continue
			}
			for _, b := range h.G.Out(a) {
				if mark[b] == claimed && part[b] != part[a] {
					return invalidTree("node %d: hubs do not separate children (edge %d→%d)", nd.ID, a, b)
				}
			}
		}
	}
	// Index agreement.
	ranked := make([]bool, max(h.nextRank, 0))
	for u := range n {
		if r := h.rank[u]; h.IsHub(u) != (r >= 0) || r >= h.nextRank || r >= 0 && ranked[r] {
			return invalidTree("node %d has deal rank %d (hub=%v, %d ranks dealt)", u, r, h.IsHub(u), h.nextRank)
		} else if r >= 0 {
			ranked[r] = true
		}
		home := h.home[u]
		if home == nil {
			return invalidTree("node %d has no home", u)
		}
		if h.IsHub(u) {
			if lv := h.HubLevel(u); lv != home.Level {
				return invalidTree("hub %d level %d but home level %d", u, lv, home.Level)
			}
		} else if !home.IsLeaf() {
			return invalidTree("non-hub %d homed at internal node %d", u, home.ID)
		}
	}
	return nil
}

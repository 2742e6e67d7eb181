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
	"fmt"
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
	// Imbalance is passed through to the partitioner.
	Imbalance float64
	// Seed drives deterministic partitioning.
	Seed int64
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
	// ID is a dense identifier unique within the hierarchy (pre-order).
	ID int
	// Level is the depth: 0 for the root (the graph G itself).
	Level int
	// Members are the global ids belonging to this subgraph, INCLUDING
	// its own hub nodes but excluding every ancestor's hubs. Sorted.
	Members []int32
	// Hubs are the hub nodes selected when splitting this subgraph
	// (H(G_m^i) in the paper). Empty for leaves. Sorted.
	Hubs []int32
	// Sub is the virtual subgraph over Members w.r.t. the ROOT graph:
	// members keep their original out-degrees and edges leaving the
	// member set feed the absorbing sink (Definition 3).
	Sub      *graph.Subgraph
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
}

// Build constructs the hierarchy for g.
func Build(g *graph.Graph, opts Options) (*Hierarchy, error) {
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("hierarchy: empty graph")
	}
	if g.HasVirtualSink() {
		return nil, fmt.Errorf("hierarchy: root graph must not have a virtual sink")
	}
	opts = opts.withDefaults()
	h := &Hierarchy{
		G:        g,
		Opts:     opts,
		home:     make([]*Node, g.NumNodes()),
		hubLevel: make([]int32, g.NumNodes()),
	}
	for i := range h.hubLevel {
		h.hubLevel[i] = -1
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
		Sub:     graph.VirtualSubgraph(h.G, members),
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

// Validate checks the structural invariants of the hierarchy and returns
// the first violation:
//
//  1. every node's children partition Members∖Hubs;
//  2. hub sets separate the child member sets within the node's induced
//     subgraph (the exactness precondition of Theorems 1–3);
//  3. Home/HubLevel indexes agree with the tree.
func (h *Hierarchy) Validate() error {
	for _, n := range h.nodes {
		memberSet := make(map[int32]bool, len(n.Members))
		for _, m := range n.Members {
			memberSet[m] = true
		}
		hubSet := make(map[int32]bool, len(n.Hubs))
		for _, hb := range n.Hubs {
			if !memberSet[hb] {
				return fmt.Errorf("hierarchy: node %d: hub %d not a member", n.ID, hb)
			}
			hubSet[hb] = true
		}
		if n.IsLeaf() {
			if len(n.Hubs) > 0 && countNonHub(n, hubSet) > 0 {
				return fmt.Errorf("hierarchy: leaf %d has hubs and members", n.ID)
			}
			continue
		}
		seen := make(map[int32]bool)
		for _, c := range n.Children {
			for _, m := range c.Members {
				if !memberSet[m] || hubSet[m] {
					return fmt.Errorf("hierarchy: node %d: child member %d invalid", n.ID, m)
				}
				if seen[m] {
					return fmt.Errorf("hierarchy: node %d: member %d in two children", n.ID, m)
				}
				seen[m] = true
			}
		}
		if len(seen)+len(n.Hubs) != len(n.Members) {
			return fmt.Errorf("hierarchy: node %d: children+hubs ≠ members (%d+%d ≠ %d)",
				n.ID, len(seen), len(n.Hubs), len(n.Members))
		}
		// Separator property on the induced subgraph.
		induced := graph.InducedSubgraph(h.G, n.Members)
		parts := make([]int32, induced.G.NumNodes())
		blockedHubs := make(map[int32]bool)
		for l := int32(0); l < int32(induced.G.NumNodes()); l++ {
			gid := induced.Parent(l)
			if hubSet[gid] {
				blockedHubs[l] = true
				continue
			}
			ci := childIndexOf(n, gid)
			if ci < 0 {
				return fmt.Errorf("hierarchy: node %d: member %d in no child", n.ID, gid)
			}
			parts[l] = int32(ci)
		}
		if !graph.IsSeparator(induced.G, blockedHubs, parts) {
			return fmt.Errorf("hierarchy: node %d: hubs do not separate children", n.ID)
		}
	}
	// Index agreement.
	for u := int32(0); u < int32(h.G.NumNodes()); u++ {
		home := h.home[u]
		if home == nil {
			return fmt.Errorf("hierarchy: node %d has no home", u)
		}
		if h.IsHub(u) {
			if lv := h.HubLevel(u); lv != home.Level {
				return fmt.Errorf("hierarchy: hub %d level %d but home level %d", u, lv, home.Level)
			}
		} else if !home.IsLeaf() {
			return fmt.Errorf("hierarchy: non-hub %d homed at internal node %d", u, home.ID)
		}
	}
	return nil
}

func countNonHub(n *Node, hubSet map[int32]bool) int {
	c := 0
	for _, m := range n.Members {
		if !hubSet[m] {
			c++
		}
	}
	return c
}

func childIndexOf(n *Node, gid int32) int {
	for i, c := range n.Children {
		for _, m := range c.Members {
			if m == gid {
				return i
			}
		}
	}
	return -1
}

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
	"slices"
	"unsafe"

	"exactppr/internal/graph"
	"exactppr/internal/partition"
	"exactppr/internal/ppr"
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
//
// A node's members — the global ids of its subgraph, INCLUDING its own
// hubs but excluding every ancestor's hubs — are exactly the ids homed
// in its subtree, so the tree stores each id once: at its home, in a
// node's Hubs or in a leaf's non-hub members. Members derives the list
// when it is needed (pre-computation, tests); a node keeps only its
// member count.
type Node struct {
	// ID is the node's pre-order index in the tree Build (or ParseTree)
	// made. Updates keep it when they drop emptied nodes, so it stays
	// unique and ascending in pre-order but may leave gaps.
	ID int32
	// Level is the depth: 0 for the root (the graph G itself).
	Level int32
	// Hubs are the hub nodes selected when splitting this subgraph
	// (H(G_m^i) in the paper). Empty for leaves. Sorted.
	Hubs     []int32
	Parent   *Node
	Children []*Node

	leaf []int32 // a leaf's non-hub members, sorted; nil for an internal node
	size int32   // the member count: ids homed in the subtree
}

// IsLeaf reports whether the node was not split further.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// Size returns the node's member count.
func (n *Node) Size() int { return int(n.size) }

// LeafMembers returns a leaf's non-hub members, sorted, and nil for an
// internal node. The slice is shared with the tree: do not modify it.
func (n *Node) LeafMembers() []int32 { return n.leaf }

// Members returns the node's members, sorted, in a fresh slice: the
// ids homed in its subtree — its hubs, and every descendant's hubs and
// leaf members. The tree keeps no subgraph: the pre-computation
// extracts the virtual subgraph over Members (graph.VirtualSubgraph,
// Definition 3) from the hierarchy's graph when it computes the node's
// vectors.
func (n *Node) Members() []int32 {
	out := make([]int32, 0, n.size)
	var walk func(*Node)
	walk = func(n *Node) {
		out = append(append(out, n.Hubs...), n.leaf...)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(n)
	slices.Sort(out)
	return out
}

// Hierarchy is the full tree plus per-node indexes.
type Hierarchy struct {
	G    *graph.Graph
	Root *Node
	Opts Options

	nodes []*Node // all tree nodes in pre-order
	// home is, per global node, the position in nodes of the deepest
	// tree node containing it (see Home).
	home     []int32
	hubLevel []int32 // per global node: level where it became a hub, or -1
	// rank is each hub's deal rank, or -1 (see DealRank); nextRank is
	// the rank the next newly promoted hub receives.
	rank     []int32
	nextRank int32
}

// Build constructs the hierarchy for g. The nodes of one level are
// independent, so Build grows the tree level by level, splitting each
// level's nodes concurrently on ppr.Run, the pre-computation's task
// pool. Each node is partitioned with the seed its place in the tree
// gives it, and one pre-order pass then numbers the nodes and deals the
// hub ranks, so the tree, its ranks and the store files made from it —
// and the error of a build that fails — are the same for every
// GOMAXPROCS.
func Build(g *graph.Graph, opts Options) (*Hierarchy, error) { return build(g, opts, nil) }

// build is Build, handing every tree node, in pre-order, and the
// members it was partitioned with to seen when seen is not nil; grow
// keeps those member lists for it only then.
func build(g *graph.Graph, opts Options, seen func(*Node, []int32)) (*Hierarchy, error) {
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
		home:     make([]int32, g.NumNodes()),
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
	h.Root = &Node{size: int32(len(all))}
	var kept map[*Node][]int32
	if seen != nil {
		kept = map[*Node][]int32{}
	}
	if err := h.grow(pending{h.Root, all, opts.Seed}, kept); err != nil {
		return nil, err
	}

	// Number the nodes in pre-order and index their ids, as a serial
	// depth-first build would have: ranks follow Nodes()×Hubs order.
	stack := []*Node{h.Root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n.ID = int32(len(h.nodes))
		h.nodes = append(h.nodes, n)
		for _, x := range n.Hubs {
			h.home[x] = n.ID
			h.hubLevel[x] = n.Level
			h.rank[x] = h.nextRank
			h.nextRank++
		}
		for _, x := range n.leaf {
			h.home[x] = n.ID
		}
		if seen != nil {
			seen(n, kept[n])
		}
		for i := len(n.Children) - 1; i >= 0; i-- {
			stack = append(stack, n.Children[i])
		}
	}
	return h, nil
}

// pending is a tree node waiting to be split: its members and the seed
// its place in the tree gives it.
type pending struct {
	n       *Node
	members []int32
	seed    int64
}

// grow splits the tree from root down one level at a time: a level's
// pending nodes are one ppr.Run, task i splitting level[i], and the next
// level is their children in slot order. A split reads only its node's
// members and seed, so no split depends on which worker makes it, or
// when, and a failing level returns the error of its first failing
// node, the same at every GOMAXPROCS. When kept is not nil, grow
// records every node's members in it.
func (h *Hierarchy) grow(root pending, kept map[*Node][]int32) error {
	for level := []pending{root}; len(level) > 0; {
		kids := make([][]pending, len(level))
		if _, err := ppr.Run(len(level), 0, func(_ *ppr.Scratch, i int) (err error) {
			kids[i], err = h.split(level[i])
			return err
		}); err != nil {
			return err
		}
		if kept != nil {
			for _, p := range level {
				kept[p.n] = p.members
			}
		}
		level = slices.Concat(kids...)
	}
	return nil
}

// split partitions one pending node: it sets the node's hubs, or its
// leaf members if the node stays whole, and returns its children to
// split next. The tree keeps only each leaf's non-hub members and every
// node's member count; Node.Members derives the rest.
func (h *Hierarchy) split(p pending) ([]pending, error) {
	n, members := p.n, p.members
	// A node left whole is a leaf of non-hub members.
	whole := func() ([]pending, error) {
		n.leaf = slices.Clone(members)
		return nil, nil
	}

	if !h.maySplit(int(n.Level), len(members)) {
		return whole()
	}
	induced := graph.InducedSubgraph(h.G, members)
	if induced.G.NumEdges() == 0 {
		return whole() // the paper's "no internal edges" stopping rule
	}
	parts, err := partition.Partition(induced.G, h.Opts.Fanout, partition.Options{
		Imbalance: h.Opts.Imbalance,
		Seed:      p.seed,
	})
	if err != nil {
		return nil, fmt.Errorf("hierarchy: level %d: %w", n.Level, err)
	}
	hubLocal := partition.HubNodes(induced.G, parts, h.Opts.Fanout)
	childMembers := make([][]int32, h.Opts.Fanout)
	for l, part := range parts {
		if hubLocal[int32(l)] {
			continue
		}
		childMembers[part] = append(childMembers[part], induced.Parent(int32(l)))
	}
	for _, cm := range childMembers {
		if len(cm) == len(members) {
			// The split selected no hub and kept every member in one part
			// (fanout 1 does nothing else): splitting again would repeat
			// this node at every level, so it stays a leaf.
			return whole()
		}
	}
	for l := range hubLocal {
		n.Hubs = append(n.Hubs, induced.Parent(l))
	}
	slices.Sort(n.Hubs)
	var kids []pending
	for i, cm := range childMembers {
		if len(cm) == 0 {
			continue
		}
		c := &Node{Level: n.Level + 1, Parent: n, size: int32(len(cm))}
		n.Children = append(n.Children, c)
		kids = append(kids, pending{c, cm, p.seed*31 + int64(i) + 1})
	}
	return kids, nil
}

// maySplit applies the stopping rules that need no subgraph: the level
// cap and the size floor.
func (h *Hierarchy) maySplit(level, size int) bool {
	if h.Opts.MaxLevels > 0 && level >= h.Opts.MaxLevels {
		return false
	}
	return size > h.Opts.MinSize
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
func (h *Hierarchy) Home(u int32) *Node { return h.nodes[h.home[u]] }

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

// Ranks returns every id's DealRank, -1 for a non-hub, as the tree's
// own slice, so a reader that needs only the ranks can keep them
// without the tree. Callers must not write it.
func (h *Hierarchy) Ranks() []int32 { return h.rank }

// Path returns the chain of tree nodes containing u, from the root down
// to Home(u).
func (h *Hierarchy) Path(u int32) []*Node {
	var rev []*Node
	for n := h.Home(u); n != nil; n = n.Parent {
		rev = append(rev, n)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// ResidentBytes is the heap the tree takes, not counting the graph:
// the per-id indexes, and every node with its hub, leaf-member and
// child lists.
func (h *Hierarchy) ResidentBytes() int64 {
	b := 8*int64(cap(h.nodes)) + 4*int64(cap(h.home)+cap(h.hubLevel)+cap(h.rank))
	for _, n := range h.nodes {
		b += int64(unsafe.Sizeof(*n)) + 4*int64(cap(n.Hubs)+cap(n.leaf)) + 8*int64(cap(n.Children))
	}
	return b
}

// Depth returns the number of levels (leaf level index + 1... the maximum
// Level among nodes plus one).
func (h *Hierarchy) Depth() int {
	d := 0
	for _, n := range h.nodes {
		d = max(d, int(n.Level)+1)
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

// meet returns the deepest tree node that holds both ha and the last
// node of chain, a root-first path such as Path returns. An edge between
// two ids keeps the separator property (Validate's invariant 4) exactly
// when the node they meet at is the home of one of them. meet walks up
// from ha, so it takes at most ha.Level steps.
func meet(ha *Node, chain []*Node) *Node {
	x := ha
	for int(x.Level) >= len(chain) || chain[x.Level] != x {
		x = x.Parent
	}
	return x
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
//  1. Nodes() is the tree from Root in pre-order, each child linked to
//     its parent one level below it;
//  2. every id is listed once, at its home: in the sorted Hubs of the
//     node it is a hub of, at that node's level, or in the sorted
//     non-hub members of its leaf; a leaf lists hubs or non-hub
//     members, not both;
//  3. every node's member count is its hubs, its leaf members and its
//     children's counts: the children partition Members∖Hubs;
//  4. hub sets separate the child member sets within the node's induced
//     subgraph (the exactness precondition of Theorems 1–3): no edge
//     joins members of two different children — every edge has an
//     endpoint homed at the deepest tree node holding both;
//  5. deal ranks are unique, below nextRank, and held by hubs alone.
//
// It derives no member list: one pass over the tree's lists, then per
// id one walk up from its home and per edge one from its tail's home —
// the work maxMeanDepth bounds.
func (h *Hierarchy) Validate() error {
	n := int32(h.G.NumNodes())
	if len(h.nodes) == 0 || h.nodes[0] != h.Root || h.Root.Parent != nil || h.Root.Level != 0 {
		return invalidTree("the root is not the first node at level 0")
	}
	stack, next := []*Node{h.Root}, 0
	for len(stack) > 0 {
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if next == len(h.nodes) || h.nodes[next] != nd {
			return invalidTree("node %d is out of pre-order", nd.ID)
		}
		next++
		for i := len(nd.Children) - 1; i >= 0; i-- {
			c := nd.Children[i]
			if c.Parent != nd || c.Level != nd.Level+1 {
				return invalidTree("node %d: child %d not linked one level below it", nd.ID, c.ID)
			}
			stack = append(stack, c)
		}
	}
	if next != len(h.nodes) {
		return invalidTree("%d of %d nodes are not in the tree", len(h.nodes)-next, len(h.nodes))
	}
	listed := make([]bool, n)
	for _, nd := range h.nodes {
		size := int32(len(nd.Hubs) + len(nd.leaf))
		for _, c := range nd.Children {
			size += c.size
		}
		if size != nd.size {
			return invalidTree("node %d: children+hubs ≠ members (%d ≠ %d)", nd.ID, size, nd.size)
		}
		if len(nd.leaf) > 0 && (len(nd.Hubs) > 0 || !nd.IsLeaf()) {
			return invalidTree("leaf %d has hubs and members (or children)", nd.ID)
		}
		for k, x := range nd.Hubs {
			if x < 0 || x >= n || k > 0 && x <= nd.Hubs[k-1] || listed[x] || h.Home(x) != nd || h.hubLevel[x] != nd.Level {
				return invalidTree("node %d: hub %d not a sorted id homed there at level %d", nd.ID, x, nd.Level)
			}
			listed[x] = true
		}
		for k, x := range nd.leaf {
			if x < 0 || x >= n || k > 0 && x <= nd.leaf[k-1] || listed[x] || h.Home(x) != nd || h.IsHub(x) {
				return invalidTree("leaf %d: member %d not a sorted non-hub id homed there", nd.ID, x)
			}
			listed[x] = true
		}
	}
	ranked := make([]bool, max(h.nextRank, 0))
	for u := range n {
		if !listed[u] {
			return invalidTree("node id %d is in no tree node", u)
		}
		if r := h.rank[u]; h.IsHub(u) != (r >= 0) || r >= h.nextRank || r >= 0 && ranked[r] {
			return invalidTree("node %d has deal rank %d (hub=%v, %d ranks dealt)", u, r, h.IsHub(u), h.nextRank)
		} else if r >= 0 {
			ranked[r] = true
		}
	}
	// Separator property: an undirected path between two children that
	// avoids the hubs crosses some edge between them. Edges are taken
	// head by head, so each head's chain is read once and each edge walks
	// up from its tail's home only: the work stays within what
	// maxMeanDepth bounds.
	off, in := h.G.Reverse()
	chain := make([]*Node, h.Depth())
	for b := range n {
		hb := h.Home(b)
		for x := hb; x != nil; x = x.Parent {
			chain[x.Level] = x
		}
		for _, a := range in[off[b]:off[b+1]] {
			ha := h.Home(a)
			if m := meet(ha, chain[:hb.Level+1]); m != ha && m != hb {
				return invalidTree("node %d: hubs do not separate children (edge %d→%d)", m.ID, a, b)
			}
		}
	}
	return nil
}

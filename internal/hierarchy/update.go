package hierarchy

import (
	"slices"
	"sort"

	"exactppr/internal/graph"
)

// Dirty-set semantics. Every pre-computed object of the HGPA store is
// local to ONE tree node's virtual subgraph: hub partials and skeletons
// to the subgraph where the hub was selected, leaf PPVs to the leaf
// subgraph. A node's virtual subgraph (Definition 3) consists of the
// out-edges of its members plus their ORIGINAL out-degrees, so an edge
// (t, v) changes exactly the subgraphs whose member set contains the
// tail t — and membership is nested, so those are precisely the nodes
// on Path(t), root through Home(t). Heads are free: an edge arriving
// from outside a subgraph neither appears in it nor changes any
// member's out-degree. The dirty set of a delta batch is therefore the
// union of the tails' root-to-home chains, plus whatever hub promotion
// touches (below).
//
// Exactness additionally requires each node's hub set to separate its
// children (Theorems 1–3). A deleted edge can never break separation; an
// inserted edge (t, v) can break it only at the deepest tree node
// containing both endpoints, and only when neither endpoint is that
// node's hub and they sit in different children. The repair is hub
// PROMOTION: the tail t joins that node's hub set and leaves every
// deeper subgraph. Promotion keeps the partition tree intact (no
// re-partitioning), dirties only nodes already on Path(t), and is
// always sound — removing a vertex from a subgraph cannot connect its
// children, and enlarging a separator keeps it a separator. The price
// is that hub sets drift above what a fresh partitioning would choose;
// a periodic full rebuild re-optimizes, exactly like any LSM-style
// structure compacts.
type Update struct {
	// H is the new hierarchy, over the graph the batch yields. It shares
	// every clean node's slices with the receiver of ApplyDelta, which
	// keeps its own graph and remains fully usable as a snapshot.
	H *Hierarchy
	// Inserted and Deleted count the edge operations that changed the
	// graph (see graph.Delta.Effective).
	Inserted, Deleted int
	// Dirty lists the tree nodes (of H, sorted by ID) whose virtual
	// subgraph changed: their hub partials, skeletons, and — for leaves —
	// member PPVs must be recomputed, over subgraphs extracted from H.G.
	Dirty []*Node
	// Promoted lists nodes that joined a hub set to restore the
	// separator property, in deterministic (sorted-edge) order. A
	// promoted node's old leaf PPV is stale and must be dropped.
	Promoted []int32
}

// ApplyDelta maps an edge-delta batch to the partition hierarchy: it
// returns a NEW hierarchy over the new graph the batch yields, with hub
// promotions applied, plus the dirty node set. The receiver and its
// graph are untouched and keep serving as a snapshot, so any hierarchy,
// old or new, can absorb any batch. A batch that changes no edge
// yields the receiver itself, which never changes, with nothing dirty.
func (h *Hierarchy) ApplyDelta(d graph.Delta) (*Update, error) {
	ins, del, err := d.Effective(h.G)
	if err != nil {
		return nil, err
	}
	if len(ins) == 0 && len(del) == 0 {
		return &Update{H: h}, nil
	}
	g, _, _, err := h.G.ApplyDelta(graph.Delta{Insert: ins, Delete: del})
	if err != nil {
		return nil, err
	}
	u := &updater{h: h.clone(), dirty: make(map[*Node]bool)}
	u.h.G = g
	for _, e := range del {
		u.markPath(e[0])
	}
	for _, e := range ins {
		u.markPath(e[0])
		u.fixSeparator(e[0], e[1])
	}
	out := &Update{H: u.h, Inserted: len(ins), Deleted: len(del), Promoted: u.promoted}
	for n := range u.dirty {
		if !u.removed[n] {
			out.Dirty = append(out.Dirty, n)
		}
	}
	sort.Slice(out.Dirty, func(i, j int) bool { return out.Dirty[i].ID < out.Dirty[j].ID })
	return out, nil
}

// clone produces a structurally independent copy of the tree: fresh
// Node structs and index arrays, shared Hubs and leaf-member payloads.
// Node IDs are preserved, so shard assignments keyed by ID stay
// meaningful across an update.
func (h *Hierarchy) clone() *Hierarchy {
	nh := &Hierarchy{
		G:        h.G,
		Opts:     h.Opts,
		nodes:    make([]*Node, len(h.nodes)),
		home:     slices.Clone(h.home),
		hubLevel: slices.Clone(h.hubLevel),
		rank:     slices.Clone(h.rank),
		nextRank: h.nextRank,
	}
	m := make(map[*Node]*Node, len(h.nodes))
	for i, n := range h.nodes {
		c := *n
		nh.nodes[i] = &c
		m[n] = &c
	}
	for _, c := range nh.nodes {
		c.Parent = m[c.Parent]
		children := make([]*Node, len(c.Children))
		for i, x := range c.Children {
			children[i] = m[x]
		}
		c.Children = children
	}
	nh.Root = m[h.Root]
	return nh
}

type updater struct {
	h        *Hierarchy
	dirty    map[*Node]bool
	removed  map[*Node]bool
	promoted []int32
}

// markPath dirties the root-to-home chain of tail t.
func (u *updater) markPath(t int32) {
	for n := u.h.Home(t); n != nil; n = n.Parent {
		u.dirty[n] = true
	}
}

// fixSeparator checks the inserted edge (t, v) against the separator
// property and promotes t when it crosses two children of the deepest
// node containing both endpoints.
func (u *updater) fixSeparator(t, v int32) {
	ht, hv := u.h.Home(t), u.h.Home(v)
	m := meet(ht, u.h.Path(v))
	if m == ht || m == hv {
		// One endpoint is homed where they meet: either it is that
		// node's hub (the edge touches a separator vertex) or both
		// endpoints share one leaf. Neither breaks separation.
		return
	}
	// t continues below m into one child, v into a different one: a
	// separator violation. Promote the tail — its chain is already
	// dirty, so the promotion adds no recompute work beyond the new hub
	// vectors.
	u.promote(t, m, u.h.Path(t)[m.Level+1:])
}

// promote turns x into a hub of n, removing it from every node of
// `below` (x's chain strictly below n, child-of-n first): x's home
// moves to n, and each node below loses one member.
func (u *updater) promote(x int32, n *Node, below []*Node) {
	for _, c := range below {
		c.size--
		u.dirty[c] = true
	}
	old := below[len(below)-1] // x's former home
	if u.h.hubLevel[x] >= 0 {
		old.Hubs = removeSorted(old.Hubs, x)
	} else {
		old.leaf = removeSorted(old.leaf, x)
		u.h.rank[x] = u.h.nextRank
		u.h.nextRank++
	}
	for i := len(below) - 1; i >= 0; i-- {
		if below[i].size > 0 {
			break
		}
		u.unlink(below[i])
	}
	n.Hubs = insertSorted(n.Hubs, x)
	u.h.hubLevel[x] = n.Level
	// Pre-order IDs ascend along nodes, gaps and all.
	u.h.home[x] = int32(sort.Search(len(u.h.nodes), func(i int) bool { return u.h.nodes[i].ID >= n.ID }))
	u.dirty[n] = true
	u.promoted = append(u.promoted, x)
}

// unlink drops an emptied node from the tree. An emptied node cannot
// have children (their members would be its members) nor remaining
// hubs, so dropping it leaves every invariant intact.
func (u *updater) unlink(c *Node) {
	if u.removed == nil {
		u.removed = make(map[*Node]bool)
	}
	u.removed[c] = true
	p := c.Parent
	for i, x := range p.Children {
		if x == c {
			p.Children = append(p.Children[:i], p.Children[i+1:]...)
			break
		}
	}
	for i, x := range u.h.nodes {
		if x == c {
			u.h.nodes = append(u.h.nodes[:i], u.h.nodes[i+1:]...)
			// Ids homed after the emptied node move up one position;
			// the one id homed at it, promote's x, is re-homed next.
			for id, pos := range u.h.home {
				if pos > int32(i) {
					u.h.home[id]--
				}
			}
			break
		}
	}
}

// removeSorted returns a fresh sorted slice without x. Fresh because
// Hubs and leaf-member slices are shared with the snapshot hierarchy —
// surgery must never mutate them in place.
func removeSorted(s []int32, x int32) []int32 {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= x })
	if i == len(s) || s[i] != x {
		return s
	}
	out := make([]int32, 0, len(s)-1)
	out = append(out, s[:i]...)
	return append(out, s[i+1:]...)
}

// insertSorted returns a fresh sorted slice with x added.
func insertSorted(s []int32, x int32) []int32 {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= x })
	if i < len(s) && s[i] == x {
		return s
	}
	out := make([]int32, 0, len(s)+1)
	out = append(out, s[:i]...)
	out = append(out, x)
	return append(out, s[i:]...)
}

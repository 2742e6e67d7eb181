package core

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"exactppr/internal/hierarchy"
)

// TestParsedTreeMatchesBuild: the tree a store file carries is the tree
// hierarchy.Build made — node by node, and in every per-id index.
func TestParsedTreeMatchesBuild(t *testing.T) {
	s, _, _ := equivFixture(t)
	d, err := parseStore(savedBytes(t, s))
	if err != nil {
		t.Fatal(err)
	}
	want, got := s.H, d.H
	if got.Opts != want.Opts || got.G.Epoch() != want.G.Epoch() || len(got.Nodes()) != len(want.Nodes()) {
		t.Fatalf("parsed tree: opts %+v, epoch %d, %d nodes; built: %+v, %d, %d",
			got.Opts, got.G.Epoch(), len(got.Nodes()), want.Opts, want.G.Epoch(), len(want.Nodes()))
	}
	id := func(n *hierarchy.Node) int32 {
		if n == nil {
			return -1
		}
		return n.ID
	}
	for i, w := range want.Nodes() {
		g := got.Nodes()[i]
		if g.ID != w.ID || g.Level != w.Level || id(g.Parent) != id(w.Parent) || len(g.Children) != len(w.Children) ||
			g.Size() != w.Size() || !slices.Equal(g.Members(), w.Members()) || !slices.Equal(g.Hubs, w.Hubs) {
			t.Fatalf("node %d: parsed %+v, built %+v", i, *g, *w)
		}
	}
	for u := range int32(want.G.NumNodes()) {
		if id(got.Home(u)) != id(want.Home(u)) || got.HubLevel(u) != want.HubLevel(u) || got.DealRank(u) != want.DealRank(u) {
			t.Fatalf("id %d: parsed home %d, hub level %d, rank %d; built %d, %d, %d", u,
				id(got.Home(u)), got.HubLevel(u), got.DealRank(u), id(want.Home(u)), want.HubLevel(u), want.DealRank(u))
		}
	}
}

// hostileTree is a saved store whose tree section breaks one invariant,
// and a fragment of the error that names it.
type hostileTree struct {
	name, want string
	file       []byte
}

// hostileTrees breaks s's saved tree one invariant at a time: a parent
// index not before its child, an id in two leaves or in none, a hub id
// ≥ n, two hubs with one deal rank, and a non-hub member moved to a
// sibling leaf it has an edge from or to. A case the store's tree has
// no room for is left out.
func hostileTrees(tb testing.TB, s *Store) []hostileTree {
	data := savedBytes(tb, s)
	edges := s.H.G.NumEdges()
	var out []hostileTree
	add := func(name, want string, edit func(nodes []treeRecord) bool) {
		head, nextRank, nodes, tail := storeTree(data, edges)
		if edit(nodes) {
			out = append(out, hostileTree{name, want, withTree(head, nextRank, nodes, tail)})
		}
	}
	add("parent after child", "not before it", func(nodes []treeRecord) bool {
		last := len(nodes) - 1
		nodes[last].parent = int32(last)
		return last > 0
	})
	leaves := func(nodes []treeRecord, minLeaf int) []int {
		var ls []int
		for i, r := range nodes {
			if len(r.leaf) >= minLeaf {
				ls = append(ls, i)
			}
		}
		return ls
	}
	add("id in two leaves", "already homed", func(nodes []treeRecord) bool {
		ls := leaves(nodes, 1)
		if len(ls) < 2 {
			return false
		}
		a, b := &nodes[ls[0]], &nodes[ls[1]]
		b.leaf[0] = a.leaf[0]
		slices.Sort(b.leaf)
		return true
	})
	add("id in no leaf", "in no tree node", func(nodes []treeRecord) bool {
		ls := leaves(nodes, 2)
		if len(ls) == 0 {
			return false
		}
		a := &nodes[ls[0]]
		a.leaf = a.leaf[:len(a.leaf)-1]
		return true
	})
	add("hub id n", "not an ascending id below", func(nodes []treeRecord) bool {
		r := &nodes[0]
		if len(r.hubs) == 0 {
			return false
		}
		r.hubs[len(r.hubs)-1] = int32(s.H.G.NumNodes())
		return true
	})
	add("two hubs one rank", "deal rank", func(nodes []treeRecord) bool {
		var ranks []*int32
		for i := range nodes {
			for k := range nodes[i].ranks {
				ranks = append(ranks, &nodes[i].ranks[k])
			}
		}
		if len(ranks) < 2 {
			return false
		}
		*ranks[1] = *ranks[0]
		return true
	})
	add("separator broken", "do not separate", func(nodes []treeRecord) bool {
		g := s.H.G
		for a := range nodes {
			for b := range nodes {
				if a == b || nodes[a].parent != nodes[b].parent || len(nodes[b].leaf) == 0 {
					continue
				}
				for i, x := range nodes[a].leaf {
					for _, y := range nodes[a].leaf {
						if x != y && (g.HasEdge(x, y) || g.HasEdge(y, x)) {
							nodes[a].leaf = slices.Delete(nodes[a].leaf, i, i+1)
							nodes[b].leaf = append(nodes[b].leaf, x)
							slices.Sort(nodes[b].leaf)
							return true
						}
					}
				}
			}
		}
		return false
	})
	return out
}

// TestLoadRejectsInvalidTree: a tree section that breaks an invariant
// fails every opener with hierarchy.ErrInvalidTree — the check that
// names it, not a later one — each under a 1 s deadline.
func TestLoadRejectsInvalidTree(t *testing.T) {
	s, _ := diskStoreFixture(t)
	cases := hostileTrees(t, s)
	if len(cases) != 6 {
		t.Fatalf("the fixture's tree has room for %d of the 6 hostile cases", len(cases))
	}
	for _, tc := range cases {
		for _, op := range storeOpeners(t, tc.file) {
			done := make(chan error, 1)
			go func() { done <- op.open() }()
			select {
			case err := <-done:
				if !errors.Is(err, hierarchy.ErrInvalidTree) || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s: %s: got %v, want ErrInvalidTree naming %q", tc.name, op.name, err, tc.want)
				}
			case <-time.After(time.Second):
				t.Fatalf("%s: %s still running after 1 s", tc.name, op.name)
			}
		}
	}
}

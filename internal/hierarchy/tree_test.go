package hierarchy

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"exactppr/internal/gen"
	"exactppr/internal/graph"
)

// sameTree fails t unless got and want hold the same tree: the same
// nodes in pre-order (levels, members, hubs) and the same home, hub
// level and deal rank for every id.
func sameTree(t *testing.T, got, want *Hierarchy) {
	t.Helper()
	if treeDigest(got) != treeDigest(want) || got.nextRank != want.nextRank {
		t.Fatalf("parsed tree differs: digest %s, nextRank %d; want %s, %d", treeDigest(got), got.nextRank, treeDigest(want), want.nextRank)
	}
	for u := range int32(want.G.NumNodes()) {
		if got.Home(u).Level != want.Home(u).Level || got.HubLevel(u) != want.HubLevel(u) || got.DealRank(u) != want.DealRank(u) {
			t.Fatalf("id %d: parsed home level %d, hub level %d, rank %d; want %d, %d, %d", u,
				got.Home(u).Level, got.HubLevel(u), got.DealRank(u), want.Home(u).Level, want.HubLevel(u), want.DealRank(u))
		}
	}
}

// TestParseTreeRoundTrip: ParseTree reads back what AppendTree wrote —
// for a built tree, and for one that updates have reshaped (promoted
// hubs, dropped nodes, IDs with gaps) — and reads exactly its section.
func TestParseTreeRoundTrip(t *testing.T) {
	g := testCommunity(t, 7)
	h, err := Build(g, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	n := int32(g.NumNodes())
	promoted := 0
	for batch := 0; batch < 40; batch++ {
		data, err := h.AppendTree(nil)
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, 1, 2, 3)
		got, used, err := ParseTree(data, g, h.Opts)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		if used != len(data)-3 {
			t.Fatalf("batch %d: read %d bytes of a %d-byte section", batch, used, len(data)-3)
		}
		sameTree(t, got, h)
		var d graph.Delta
		for range 3 {
			if u, v := rng.Int31n(n), rng.Int31n(n); u != v && !g.HasEdge(u, v) {
				d.Insert = append(d.Insert, [2]int32{u, v})
			}
		}
		upd, err := h.ApplyDelta(d)
		if err != nil {
			t.Fatal(err)
		}
		g = upd.H.G
		h, promoted = upd.H, promoted+len(upd.Promoted)
	}
	if promoted == 0 {
		t.Fatal("no batch promoted a hub")
	}
}

// TestMembersMatchPartition: a node's derived members are the lists
// Build partitioned with — on the built tree, on the tree read back from
// its section, and on trees that promotions reshaped, where a promoted
// id leaves every list below its new home and a node that loses its
// last member leaves the tree.
func TestMembersMatchPartition(t *testing.T) {
	g := testCommunity(t, 7)
	want := map[int32][]int32{} // by node ID
	level := map[int32]int32{}
	h, err := build(g, Options{Seed: 11}, func(n *Node, members []int32) {
		want[n.ID], level[n.ID] = slices.Clone(members), n.Level
	})
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string) {
		t.Helper()
		in := map[int32]bool{}
		for _, n := range h.Nodes() {
			in[n.ID] = true
			if got := n.Members(); !slices.Equal(got, want[n.ID]) || n.Size() != len(got) {
				t.Fatalf("%s: node %d: members %v (size %d), want %v", what, n.ID, got, n.Size(), want[n.ID])
			}
		}
		for id, m := range want {
			if !in[id] && len(m) > 0 {
				t.Fatalf("%s: node %d left the tree holding %v", what, id, m)
			}
		}
		data, err := h.AppendTree(nil)
		if err != nil {
			t.Fatal(err)
		}
		parsed, _, err := ParseTree(data, h.G, h.Opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, n := range parsed.Nodes() {
			if w := h.Nodes()[i]; !slices.Equal(n.Members(), w.Members()) || n.Size() != w.Size() {
				t.Fatalf("%s: parsed node %d: members %v (size %d), want %v", what, i, n.Members(), n.Size(), w.Members())
			}
		}
	}
	apply := func(d graph.Delta) *Update {
		t.Helper()
		upd, err := h.ApplyDelta(d)
		if err != nil {
			t.Fatal(err)
		}
		g = upd.H.G
		for _, x := range upd.Promoted {
			for id, m := range want {
				if int(level[id]) > upd.H.HubLevel(x) {
					want[id] = slices.DeleteFunc(m, func(y int32) bool { return y == x })
				}
			}
		}
		h = upd.H
		return upd
	}
	check("built")

	// Empty a leaf: an edge from each of its members to a non-hub in a
	// sibling subtree promotes every one of them into the parent's hubs.
	var emptied *Node
	var d graph.Delta
	for _, leaf := range h.Leaves() {
		if leaf.Parent == nil || len(leaf.LeafMembers()) == 0 || emptied != nil {
			continue
		}
		for _, c := range leaf.Parent.Children {
			for _, y := range c.Members() {
				if c != leaf && !h.IsHub(y) && emptied == nil {
					emptied = leaf
					for _, x := range leaf.LeafMembers() {
						d.Insert = append(d.Insert, [2]int32{x, y})
					}
				}
			}
		}
	}
	if emptied == nil {
		t.Fatal("no leaf with a sibling subtree to promote past")
	}
	if upd := apply(d); len(upd.Promoted) != len(d.Insert) {
		t.Fatalf("emptying leaf %d promoted %d of its %d members", emptied.ID, len(upd.Promoted), len(d.Insert))
	}
	for _, n := range h.Nodes() {
		if n.ID == emptied.ID {
			t.Fatalf("emptied leaf %d is still in the tree", n.ID)
		}
	}
	check("emptied leaf")

	rng := rand.New(rand.NewSource(5))
	n := int32(g.NumNodes())
	promoted := 0
	for batch := range 30 {
		var d graph.Delta
		for range 3 {
			if u, v := rng.Int31n(n), rng.Int31n(n); u != v && !g.HasEdge(u, v) {
				d.Insert = append(d.Insert, [2]int32{u, v})
			}
		}
		promoted += len(apply(d).Promoted)
		check(fmt.Sprintf("batch %d", batch))
	}
	if promoted == 0 {
		t.Fatal("no random batch promoted a hub")
	}
}

// TestParseTreeRejectsTruncation: a section cut anywhere fails with
// ErrInvalidTree.
func TestParseTreeRejectsTruncation(t *testing.T) {
	g := testCommunity(t, 7)
	h, err := Build(g, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	data, err := h.AppendTree(nil)
	if err != nil {
		t.Fatal(err)
	}
	for cut := range len(data) {
		if _, _, err := ParseTree(data[:cut], g, h.Opts); !errors.Is(err, ErrInvalidTree) {
			t.Fatalf("cut at %d of %d: got %v, want ErrInvalidTree", cut, len(data), err)
		}
	}
}

// webTree builds the hierarchy of the serving benchmark's fixture graph
// (web×1, seed 1).
func webTree(b *testing.B) *Hierarchy {
	g, err := gen.Dataset("web", 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	h, err := Build(g, Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return h
}

// BenchmarkValidate checks the web×1 fixture's tree, which store files
// check on every open.
func BenchmarkValidate(b *testing.B) {
	h := webTree(b)
	b.ResetTimer()
	for range b.N {
		if err := h.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseTree reads the web×1 fixture's tree section back,
// Validate included: the tree's share of a store file's open time.
func BenchmarkParseTree(b *testing.B) {
	h := webTree(b)
	data, err := h.AppendTree(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for range b.N {
		if _, _, err := ParseTree(data, h.G, h.Opts); err != nil {
			b.Fatal(err)
		}
	}
}

// TestValidateCatchesBrokenSeparator: a leaf member moved into a sibling
// leaf while it keeps an edge into its old one leaves the parent's hubs
// no longer separating its children.
func TestValidateCatchesBrokenSeparator(t *testing.T) {
	g := testCommunity(t, 7)
	h, err := Build(g, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range h.Nodes() {
		if len(n.Children) < 2 || !n.Children[0].IsLeaf() || !n.Children[1].IsLeaf() {
			continue
		}
		a, b := n.Children[0], n.Children[1]
		for _, x := range a.leaf {
			for _, y := range a.leaf {
				if x == y || !g.HasEdge(x, y) || h.IsHub(x) || h.IsHub(y) {
					continue
				}
				a.leaf, b.leaf = removeSorted(a.leaf, x), insertSorted(b.leaf, x)
				a.size, b.size = a.size-1, b.size+1
				h.home[x] = b.ID // a built tree's positions are its IDs
				if err := h.Validate(); !errors.Is(err, ErrInvalidTree) || !strings.Contains(err.Error(), "do not separate") {
					t.Fatalf("moved %d from leaf %d to leaf %d: Validate = %v", x, a.ID, b.ID, err)
				}
				return
			}
		}
	}
	t.Fatal("no two sibling leaves with an inner edge to break")
}

// chainTree encodes the tree section of a chain: depth tree nodes, the
// i-th holding hub i alone, above one leaf holding ids depth…n−1.
func chainTree(depth, n int) []byte {
	var b []byte
	put := func(x int) { b = binary.LittleEndian.AppendUint32(b, uint32(int32(x))) }
	put(depth + 1)
	put(depth)
	for i := range depth {
		put(i - 1)
		put(1)
		put(0)
		put(i)
		put(i)
	}
	put(depth - 1)
	put(0)
	put(n - depth)
	for u := depth; u < n; u++ {
		put(u)
	}
	return b
}

// TestTreeDepthBounded: a tree section lists only homes, so the work of
// deriving member lists and validating grows with the square of a deep
// chain's length — a 72 KB chain section used to allocate 69 MB. ParseTree
// now refuses such a chain before deriving anything, and AppendTree
// refuses to write one (here after deletes left a chain that its edges
// no longer outweigh), so Save never writes a file no opener reads.
func TestTreeDepthBounded(t *testing.T) {
	const n = 10000
	g := graph.NewBuilder(n).Build()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := ParseTree(chainTree(2000, n), g, Options{})
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrInvalidTree) || !strings.Contains(err.Error(), "on average") {
		t.Fatalf("2,000-node chain: got %v, want ErrInvalidTree for its depth", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 2<<20 {
		t.Errorf("2,000-node chain: allocated %d bytes before failing", alloc)
	}

	// 300 chain nodes over 1,000 ids lie too deep on their own, but not
	// with 9,990 out-edges from the ten shallowest hubs.
	const ids, depth = 1000, 300
	b := graph.NewBuilder(ids)
	var d graph.Delta
	for u := range int32(10) {
		for v := range int32(ids) {
			if u != v {
				b.AddEdge(u, v)
				d.Delete = append(d.Delete, [2]int32{u, v})
			}
		}
	}
	g = b.Build()
	h, _, err := ParseTree(chainTree(depth, ids), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.AppendTree(nil); err != nil {
		t.Fatal(err)
	}
	if h.G, _, _, err = g.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	if _, err := h.AppendTree(nil); err == nil || !strings.Contains(err.Error(), "on average") {
		t.Fatalf("chain without its edges: AppendTree = %v, want a refusal", err)
	}

	// A valid tree whose edges all run from shallow tails to deep heads:
	// 300 root hubs with an edge to each of 300 ids in a leaf under
	// 18,000 empty chain nodes. Its ids and edges lie on 60 tree nodes on
	// average, within the bound, but a walk from every edge's head would
	// take 1.6e9 steps; ParseTree must accept it within 1 s.
	const hubs, leaf, empty = 300, 300, 18000
	b = graph.NewBuilder(hubs + leaf)
	for u := range int32(hubs) {
		for v := range int32(leaf) {
			b.AddEdge(u, hubs+v)
		}
	}
	g = b.Build()
	var sec []byte
	put := func(x int) { sec = binary.LittleEndian.AppendUint32(sec, uint32(int32(x))) }
	put(empty + 2)
	put(hubs)
	put(-1)
	put(hubs)
	put(0)
	for u := range hubs {
		put(u)
		put(u)
	}
	for i := range empty {
		put(i)
		put(0)
		put(0)
	}
	put(empty)
	put(0)
	put(leaf)
	for v := range leaf {
		put(hubs + v)
	}
	done := make(chan error, 1)
	go func() { _, _, err := ParseTree(sec, g, Options{}); done <- err }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("empty chain above deep heads: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("empty chain above deep heads: ParseTree still running after 1 s")
	}
}

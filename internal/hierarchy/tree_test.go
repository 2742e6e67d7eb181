package hierarchy

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"

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
		if _, _, err := g.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
		h, promoted = upd.H, promoted+len(upd.Promoted)
	}
	if promoted == 0 {
		t.Fatal("no batch promoted a hub")
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
		for _, x := range a.Members {
			for _, y := range a.Members {
				if x == y || !g.HasEdge(x, y) || h.IsHub(x) || h.IsHub(y) {
					continue
				}
				a.Members, b.Members = removeSorted(a.Members, x), insertSorted(b.Members, x)
				h.home[x] = b
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
// deriving Members and validating grows with the square of a deep
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
	if _, _, err := g.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	if _, err := h.AppendTree(nil); err == nil || !strings.Contains(err.Error(), "on average") {
		t.Fatalf("chain without its edges: AppendTree = %v, want a refusal", err)
	}
}

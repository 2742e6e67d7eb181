package graph

import (
	"maps"
	"math/rand"
	"testing"
)

func edgeSet(g *Graph) map[[2]int32]bool {
	set := make(map[[2]int32]bool, g.NumEdges())
	for u := int32(0); u < int32(g.NumNodes()); u++ {
		for _, v := range g.Out(u) {
			set[[2]int32{u, v}] = true
		}
	}
	return set
}

func buildFrom(n int, set map[[2]int32]bool) *Graph {
	b := NewBuilder(n)
	for e := range set {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

func graphsEqual(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("shape mismatch: %d/%d nodes, %d/%d edges",
			got.NumNodes(), want.NumNodes(), got.NumEdges(), want.NumEdges())
	}
	for u := int32(0); u < int32(want.NumNodes()); u++ {
		g, w := got.Out(u), want.Out(u)
		if len(g) != len(w) {
			t.Fatalf("node %d: %d out-edges, want %d", u, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("node %d edge %d: %d, want %d", u, i, g[i], w[i])
			}
		}
		if got.OutWeight(u) != want.OutWeight(u) {
			t.Fatalf("node %d OutWeight %d, want %d", u, got.OutWeight(u), want.OutWeight(u))
		}
	}
}

func TestApplyDeltaBasics(t *testing.T) {
	g := FromAdjacency([][]int32{{1, 2}, {2}, {0}, {}})
	ins, del, err := (Delta{Insert: [][2]int32{{3, 0}, {0, 1}}, Delete: [][2]int32{{1, 2}, {2, 1}}}).Effective(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) != 1 || ins[0] != [2]int32{3, 0} {
		t.Fatalf("effective inserts = %v (existing edge must be dropped)", ins)
	}
	if len(del) != 1 || del[0] != [2]int32{1, 2} {
		t.Fatalf("effective deletes = %v (missing edge must be dropped)", del)
	}

	before := edgeSet(g)
	next, ni, nd, err := g.ApplyDelta(Delta{Insert: [][2]int32{{3, 0}, {0, 1}}, Delete: [][2]int32{{1, 2}, {2, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if ni != 1 || nd != 1 {
		t.Fatalf("applied %d/%d, want 1/1", ni, nd)
	}
	if !next.HasEdge(3, 0) || next.HasEdge(1, 2) || !next.HasEdge(0, 1) {
		t.Fatal("edge set wrong after delta")
	}
	if next.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", next.Epoch())
	}
	if err := next.Validate(); err != nil {
		t.Fatal(err)
	}
	// The receiver is a snapshot: its edges, epoch and weights stay.
	if got := edgeSet(g); !maps.Equal(got, before) {
		t.Fatalf("receiver's edges changed to %v, want %v", got, before)
	}
	if g.Epoch() != 0 {
		t.Fatalf("receiver's epoch = %d, want 0", g.Epoch())
	}
	for u, w := range []int{2, 1, 1, 0} {
		if got := g.OutWeight(int32(u)); got != w {
			t.Fatalf("receiver's OutWeight(%d) = %d, want %d", u, got, w)
		}
	}
}

func TestApplyDeltaErrors(t *testing.T) {
	g := FromAdjacency([][]int32{{1}, {}})
	if _, _, _, err := g.ApplyDelta(Delta{Insert: [][2]int32{{0, 5}}}); err == nil {
		t.Fatal("out-of-range insert should fail")
	}
	if _, _, _, err := g.ApplyDelta(Delta{Delete: [][2]int32{{-1, 0}}}); err == nil {
		t.Fatal("negative delete should fail")
	}
	if _, _, _, err := g.ApplyDelta(Delta{Insert: [][2]int32{{1, 0}}, Delete: [][2]int32{{1, 0}}}); err == nil {
		t.Fatal("insert+delete of one edge should fail")
	}
	// Self-loops and no-ops are skipped, not errors.
	next, ni, nd, err := g.ApplyDelta(Delta{Insert: [][2]int32{{0, 0}, {0, 1}}, Delete: [][2]int32{{1, 0}}})
	if err != nil || ni != 0 || nd != 0 {
		t.Fatalf("no-op delta: %d/%d inserted/deleted, err %v", ni, nd, err)
	}
	if next != g || g.Epoch() != 0 {
		t.Fatal("no-op delta must return the receiver at its epoch")
	}
	sub := VirtualSubgraph(g, []int32{0})
	if _, _, _, err := sub.G.ApplyDelta(Delta{Insert: [][2]int32{{0, 0}}}); err == nil {
		t.Fatal("virtual subgraphs must be immutable")
	}
}

// TestApplyDeltaRandomizedMatchesRebuild: applying random batches in
// sequence always equals rebuilding the graph from the updated edge set.
func TestApplyDeltaRandomizedMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 60
	set := make(map[[2]int32]bool)
	for i := 0; i < 150; i++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u != v {
			set[[2]int32{u, v}] = true
		}
	}
	g := buildFrom(n, set)
	for batch := 0; batch < 30; batch++ {
		var d Delta
		for i := 0; i < 1+rng.Intn(6); i++ {
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			e := [2]int32{u, v}
			if u == v {
				continue
			}
			if set[e] {
				if !containsEdge(d.Insert, e) && !containsEdge(d.Delete, e) {
					d.Delete = append(d.Delete, e)
					delete(set, e)
				}
			} else if !containsEdge(d.Insert, e) && !containsEdge(d.Delete, e) {
				d.Insert = append(d.Insert, e)
				set[e] = true
			}
		}
		next, _, _, err := g.ApplyDelta(d)
		if err != nil {
			t.Fatal(err)
		}
		g = next
		if err := g.Validate(); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		graphsEqual(t, g, buildFrom(n, set))
	}
}

func containsEdge(es [][2]int32, e [2]int32) bool {
	for _, x := range es {
		if x == e {
			return true
		}
	}
	return false
}

// TestReverseOfEachGraph: a graph's In keeps showing its own in-edges
// after a delta, and the graph ApplyDelta returns shows the new ones.
func TestReverseOfEachGraph(t *testing.T) {
	g := FromAdjacency([][]int32{{1}, {2}, {}})
	if got := g.In(2); len(got) != 1 || got[0] != 1 {
		t.Fatalf("In(2) = %v", got)
	}
	next, _, _, err := g.ApplyDelta(Delta{Insert: [][2]int32{{0, 2}}, Delete: [][2]int32{{1, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := g.In(2); len(got) != 1 || got[0] != 1 {
		t.Fatalf("receiver's In(2) after delta = %v, want [1]", got)
	}
	if got := next.In(2); len(got) != 1 || got[0] != 0 {
		t.Fatalf("In(2) after delta = %v (stale reverse cache?)", got)
	}
	if got := next.In(1); len(got) != 1 || got[0] != 0 {
		t.Fatalf("In(1) after delta = %v", got)
	}
}

// TestApplyDeltaSkipsNoOps: random batches mixing effective operations
// with inserts of present edges, deletes of absent ones, duplicates and
// self-loops give the graph a rebuild of the resulting edge set gives,
// and count what Effective keeps.
func TestApplyDeltaSkipsNoOps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 30
	set := make(map[[2]int32]bool)
	for range 90 {
		set[[2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}] = true
	}
	g := buildFrom(n, set)
	set = edgeSet(g) // without the self-loops Build dropped
	for batch := range 40 {
		var d Delta
		for range 1 + rng.Intn(12) {
			e := [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
			if rng.Intn(2) == 0 && !containsEdge(d.Delete, e) {
				d.Insert = append(d.Insert, e)
			} else if !containsEdge(d.Insert, e) {
				d.Delete = append(d.Delete, e)
			}
		}
		ins, del, err := d.Effective(g)
		if err != nil {
			t.Fatal(err)
		}
		next, ni, nd, err := g.ApplyDelta(d)
		if err != nil {
			t.Fatal(err)
		}
		if ni != len(ins) || nd != len(del) {
			t.Fatalf("batch %d: applied %d/%d, Effective keeps %d/%d", batch, ni, nd, len(ins), len(del))
		}
		for _, e := range ins {
			set[e] = true
		}
		for _, e := range del {
			delete(set, e)
		}
		if err := next.Validate(); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		graphsEqual(t, next, buildFrom(n, set))
		g = next
	}
}

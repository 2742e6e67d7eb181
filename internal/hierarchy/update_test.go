package hierarchy

import (
	"math/rand"
	"testing"

	"exactppr/internal/gen"
	"exactppr/internal/graph"
)

func testCommunity(t *testing.T, seed int64) *graph.Graph {
	t.Helper()
	g, err := gen.Community(gen.Config{
		Nodes: 220, AvgOutDegree: 3, Communities: 4,
		InterFrac: 0.05, MinOutDegree: 1, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestApplyDeltaDirtyIsTailPaths: the dirty set of a batch with no
// separator violations is exactly the union of the tails' root-to-home
// chains.
func TestApplyDeltaDirtyIsTailPaths(t *testing.T) {
	g := testCommunity(t, 1)
	h, err := Build(g, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Delete an existing edge: deletions never promote, so the dirty set
	// must equal Path(tail) exactly.
	var tail, head int32 = -1, -1
	for u := int32(0); u < int32(g.NumNodes()); u++ {
		if len(g.Out(u)) > 0 {
			tail, head = u, g.Out(u)[0]
			break
		}
	}
	upd, err := h.ApplyDelta(graph.Delta{Delete: [][2]int32{{tail, head}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(upd.Promoted) != 0 {
		t.Fatalf("deletion promoted %v", upd.Promoted)
	}
	want := map[int32]bool{}
	for _, n := range h.Path(tail) {
		want[n.ID] = true
	}
	if len(upd.Dirty) != len(want) {
		t.Fatalf("dirty %d nodes, want %d (the tail's path)", len(upd.Dirty), len(want))
	}
	for _, n := range upd.Dirty {
		if !want[n.ID] {
			t.Fatalf("node %d dirty but not on Path(%d)", n.ID, tail)
		}
	}
	// The receiver is untouched.
	if err := h.Validate(); err != nil {
		t.Fatalf("snapshot hierarchy corrupted: %v", err)
	}
}

// TestApplyDeltaNoOpSharesTree: a batch that changes no edge — an
// insert of a present edge, a delete of an absent one — returns the
// receiver itself with nothing dirty, not a copy of the tree.
func TestApplyDeltaNoOpSharesTree(t *testing.T) {
	g := testCommunity(t, 1)
	h, err := Build(g, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	u := int32(0)
	for len(g.Out(u)) == 0 {
		u++
	}
	absent := int32(0)
	for absent == u || g.HasEdge(u, absent) {
		absent++
	}
	upd, err := h.ApplyDelta(graph.Delta{Insert: [][2]int32{{u, g.Out(u)[0]}}, Delete: [][2]int32{{u, absent}}})
	if err != nil {
		t.Fatal(err)
	}
	if upd.H != h || upd.Inserted != 0 || upd.Deleted != 0 || len(upd.Dirty) != 0 || len(upd.Promoted) != 0 {
		t.Fatalf("no-op batch: same tree %v, +%d −%d, %d dirty, %d promoted; want the receiver and nothing changed",
			upd.H == h, upd.Inserted, upd.Deleted, len(upd.Dirty), len(upd.Promoted))
	}
}

// TestApplyDeltaPromotionRestoresSeparator: an insert crossing two
// children of a node must promote its tail into that node's hub set,
// and the updated hierarchy must validate against the updated graph.
func TestApplyDeltaPromotionRestoresSeparator(t *testing.T) {
	g := testCommunity(t, 3)
	h, err := Build(g, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Find two non-hub nodes in different children of the root.
	root := h.Root
	if len(root.Children) < 2 {
		t.Skip("root did not split")
	}
	tail := root.Children[0].Members()[0]
	head := root.Children[1].Members()[0]
	for h.IsHub(tail) {
		t.Fatal("picked a hub tail")
	}
	upd, err := h.ApplyDelta(graph.Delta{Insert: [][2]int32{{tail, head}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(upd.Promoted) != 1 || upd.Promoted[0] != tail {
		t.Fatalf("promoted %v, want [%d]", upd.Promoted, tail)
	}
	if !upd.H.IsHub(tail) || upd.H.Home(tail) != upd.H.Root {
		t.Fatalf("tail %d not promoted to root hub", tail)
	}
	if h.IsHub(tail) {
		t.Fatal("promotion leaked into the snapshot hierarchy")
	}
	if err := upd.H.Validate(); err != nil {
		t.Fatalf("updated hierarchy invalid: %v", err)
	}
}

// TestApplyDeltaRandomizedInvariants hammers the surgery: random
// batches against a live graph, validating the hierarchy (separators,
// partitions, indexes) after every batch.
func TestApplyDeltaRandomizedInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := testCommunity(t, 7)
	h, err := Build(g, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	n := int32(g.NumNodes())
	for batch := 0; batch < 25; batch++ {
		var d graph.Delta
		for i := 0; i < 1+rng.Intn(5); i++ {
			u, v := rng.Int31n(n), rng.Int31n(n)
			if u == v {
				continue
			}
			if g.HasEdge(u, v) {
				d.Delete = append(d.Delete, [2]int32{u, v})
			} else {
				d.Insert = append(d.Insert, [2]int32{u, v})
			}
		}
		upd, err := h.ApplyDelta(d)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		g = upd.H.G
		if err := upd.H.Validate(); err != nil {
			t.Fatalf("batch %d: hierarchy invalid: %v", batch, err)
		}
		// Dirty nodes must be sorted and deduplicated.
		for i := 1; i < len(upd.Dirty); i++ {
			if upd.Dirty[i-1].ID >= upd.Dirty[i].ID {
				t.Fatalf("batch %d: dirty list not strictly sorted", batch)
			}
		}
		h = upd.H
	}
}

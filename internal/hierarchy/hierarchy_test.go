package hierarchy

import (
	"bytes"
	"math"
	"runtime"
	"testing"
	"time"

	"exactppr/internal/gen"
	"exactppr/internal/graph"
)

func email(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.Dataset("email", 0.4, 5)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(graph.FromAdjacency(nil), Options{}); err == nil {
		t.Fatal("empty graph should fail")
	}
	g := graph.FromAdjacency([][]int32{{1}, {0}})
	vs := graph.VirtualSubgraph(g, []int32{0, 1})
	if _, err := Build(vs.G, Options{}); err == nil {
		t.Fatal("root with virtual sink should fail")
	}
	for _, imb := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300, 1.5} {
		if _, err := Build(g, Options{Imbalance: imb}); err == nil {
			t.Fatalf("imbalance %v should fail", imb)
		}
	}
}

// TestFanoutOneStopsAtTheRoot: a fanout-1 split selects no hub and keeps
// every member, so Build used to split the same member set again at
// every level and never returned without a level cap. The root now
// stays a leaf.
func TestFanoutOneStopsAtTheRoot(t *testing.T) {
	g := email(t)
	done := make(chan *Hierarchy, 1)
	go func() {
		h, err := Build(g, Options{Fanout: 1, Seed: 3})
		if err != nil {
			t.Error(err)
		}
		done <- h
	}()
	select {
	case h := <-done:
		if h != nil && (len(h.Nodes()) != 1 || !h.Root.IsLeaf()) {
			t.Fatalf("fanout 1 built %d tree nodes, want the root leaf alone", len(h.Nodes()))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Build with fanout 1 still running after 5 s")
	}
}

func TestBuildTinyGraphIsLeafOnly(t *testing.T) {
	g := graph.FromAdjacency([][]int32{{1}, {0}})
	h, err := Build(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !h.Root.IsLeaf() {
		t.Fatal("2-node graph should not be split (MinSize)")
	}
	if h.Depth() != 1 || h.TotalHubs() != 0 {
		t.Fatalf("Depth=%d TotalHubs=%d", h.Depth(), h.TotalHubs())
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildAndValidate(t *testing.T) {
	g := email(t)
	h, err := Build(g, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if h.Depth() < 3 {
		t.Fatalf("expected a multi-level hierarchy, depth = %d", h.Depth())
	}
	// Hub count is much smaller than |V| (the paper's Appendix D claim).
	if ht := h.TotalHubs(); ht == 0 || ht > g.NumNodes()/2 {
		t.Fatalf("total hubs = %d of %d nodes", ht, g.NumNodes())
	}
}

func TestEveryNodeHasHomeAndPath(t *testing.T) {
	g := email(t)
	h, err := Build(g, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	subs := make(map[*Node]*graph.Subgraph)
	for _, n := range h.Nodes() {
		subs[n] = graph.VirtualSubgraph(g, n.Members())
	}
	for u := int32(0); u < int32(g.NumNodes()); u++ {
		path := h.Path(u)
		if len(path) == 0 || path[0] != h.Root {
			t.Fatalf("path of %d does not start at root", u)
		}
		if path[len(path)-1] != h.Home(u) {
			t.Fatalf("path of %d does not end at home", u)
		}
		// Each consecutive pair is parent/child.
		for i := 1; i < len(path); i++ {
			if path[i].Parent != path[i-1] {
				t.Fatalf("path of %d broken at %d", u, i)
			}
		}
		// u must be a member of every node on its path.
		for _, n := range path {
			if subs[n].Local(u) < 0 {
				t.Fatalf("node %d missing from path node at level %d", u, n.Level)
			}
		}
	}
}

func TestHubRemovalFromDeeperLevels(t *testing.T) {
	g := email(t)
	h, err := Build(g, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range h.Nodes() {
		for _, hub := range n.Hubs {
			for _, c := range n.Children {
				if graph.VirtualSubgraph(g, c.Members()).Contains(hub) {
					t.Fatalf("hub %d (level %d) appears in a child subgraph", hub, n.Level)
				}
			}
		}
	}
}

func TestMaxLevels(t *testing.T) {
	g := email(t)
	for _, ml := range []int{1, 2, 3} {
		h, err := Build(g, Options{MaxLevels: ml, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		if d := h.Depth(); d > ml+1 {
			t.Fatalf("MaxLevels=%d but depth=%d", ml, d)
		}
		if err := h.Validate(); err != nil {
			t.Fatalf("MaxLevels=%d: %v", ml, err)
		}
	}
}

func TestFanout(t *testing.T) {
	g := email(t)
	for _, f := range []int{2, 4, 8} {
		h, err := Build(g, Options{Fanout: f, MaxLevels: 2, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Validate(); err != nil {
			t.Fatalf("fanout %d: %v", f, err)
		}
		if kids := len(h.Root.Children); kids > f {
			t.Fatalf("fanout %d: root has %d children", f, kids)
		}
	}
}

func TestHubsPerLevel(t *testing.T) {
	g := email(t)
	h, err := Build(g, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	counts := h.HubsPerLevel()
	total := 0
	hubCount := 0
	for _, c := range counts {
		total += c
	}
	for u := int32(0); u < int32(g.NumNodes()); u++ {
		if h.IsHub(u) {
			hubCount++
			if h.HubLevel(u) >= len(counts) {
				t.Fatalf("hub %d at level %d beyond counts %v", u, h.HubLevel(u), counts)
			}
		}
	}
	if total != hubCount || total != h.TotalHubs() {
		t.Fatalf("HubsPerLevel sum %d, hubs %d, TotalHubs %d", total, hubCount, h.TotalHubs())
	}
}

func TestLeavesHaveNoInternalEdgesOrAreSmall(t *testing.T) {
	g := email(t)
	h, err := Build(g, Options{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, leaf := range h.Leaves() {
		induced := graph.InducedSubgraph(g, leaf.Members())
		if induced.G.NumEdges() > 0 && leaf.Size() > h.Opts.MinSize && len(leaf.Hubs) == 0 {
			t.Fatalf("leaf %d (size %d) still has %d internal edges",
				leaf.ID, leaf.Size(), induced.G.NumEdges())
		}
	}
}

func TestDeterministic(t *testing.T) {
	g := email(t)
	h1, err := Build(g, Options{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	h2, _ := Build(g, Options{Seed: 12})
	if len(h1.Nodes()) != len(h2.Nodes()) {
		t.Fatalf("node counts differ: %d vs %d", len(h1.Nodes()), len(h2.Nodes()))
	}
	for i, n := range h1.Nodes() {
		m := h2.Nodes()[i]
		if n.Size() != m.Size() || len(n.Hubs) != len(m.Hubs) {
			t.Fatalf("node %d differs across builds", i)
		}
	}
}

func TestMemberCountsConserved(t *testing.T) {
	// Across each level: members of all nodes at that level + hubs of all
	// shallower levels = |V|.
	g := email(t)
	h, err := Build(g, Options{Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	// Level 0 is everything.
	if h.Root.Size() != g.NumNodes() {
		t.Fatal("root must contain every node")
	}
	perLevel := make(map[int32]int)
	hubsAbove := 0
	for _, n := range h.Nodes() {
		perLevel[n.Level] += n.Size()
	}
	counts := h.HubsPerLevel()
	for lvl := 1; lvl < h.Depth(); lvl++ {
		if lvl-1 < len(counts) {
			hubsAbove += counts[lvl-1]
		}
		// Nodes that became leaves above this level stop contributing;
		// account only subtrees that reached this depth. Instead verify
		// the weaker but exact invariant: for every internal node,
		// Σ children members + hubs = members (done in Validate).
		_ = perLevel
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestBuildDeterministicAcrossProcs: Build splits each level's nodes on
// ppr.Run's GOMAXPROCS workers, so the tree, its ranks and its homes
// must not depend on how many there are, and every worker must exit
// with Build — on success and on a split that fails.
func TestBuildDeterministicAcrossProcs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full fixture hierarchy four times")
	}
	g, err := gen.Dataset("web", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	build := func(procs int, g *graph.Graph, opts Options) (*Hierarchy, error) {
		t.Helper()
		runtime.GOMAXPROCS(procs)
		before := runtime.NumGoroutine()
		h, err := Build(g, opts)
		// A worker may still be returning when Build does.
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("GOMAXPROCS %d: %d goroutines after Build, %d before", procs, runtime.NumGoroutine(), before)
			}
		}
		return h, err
	}
	for _, fanout := range []int{2, 4} {
		var want *Hierarchy
		var wantTree []byte
		for _, procs := range []int{1, 2, 4} {
			h, err := build(procs, g, Options{Fanout: fanout, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			tree, err := h.AppendTree(nil)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want, wantTree = h, tree
				continue
			}
			if !bytes.Equal(tree, wantTree) {
				t.Fatalf("fanout %d: GOMAXPROCS %d wrote a different tree", fanout, procs)
			}
			for u := range int32(g.NumNodes()) {
				if h.DealRank(u) != want.DealRank(u) || h.HubLevel(u) != want.HubLevel(u) || h.Home(u).ID != want.Home(u).ID {
					t.Fatalf("fanout %d, GOMAXPROCS %d: id %d has rank %d, hub level %d, home %d; want %d, %d, %d",
						fanout, procs, u, h.DealRank(u), h.HubLevel(u), h.Home(u).ID,
						want.DealRank(u), want.HubLevel(u), want.Home(u).ID)
				}
			}
		}
	}
	// With no size floor, 8-way splits reach subgraphs of fewer than 8
	// members that still have edges, which the partitioner refuses.
	for _, procs := range []int{1, 2} {
		if _, err := build(procs, email(t), Options{Fanout: 8, MinSize: 1, Seed: 1}); err == nil {
			t.Fatalf("GOMAXPROCS %d: Build split subgraphs smaller than the fanout", procs)
		}
	}
}

// TestBuildErrorSameAtEveryProcs: a build whose splits fail at several
// nodes reports one error, whatever the number of workers and however
// they are scheduled. With no size floor, 8-way splits of the email
// fixture reach several subgraphs the partitioner refuses, so a build
// that reported whichever failing split a worker reached first would
// show more than one text over these rounds.
func TestBuildErrorSameAtEveryProcs(t *testing.T) {
	g := email(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	seen := map[string]int{}
	for round := range 50 {
		for _, procs := range []int{1, 2, 4, 8} {
			runtime.GOMAXPROCS(procs)
			_, err := Build(g, Options{Fanout: 8, MinSize: 1, Seed: 1})
			if err == nil {
				t.Fatalf("round %d, GOMAXPROCS %d: Build split subgraphs smaller than the fanout", round, procs)
			}
			seen[err.Error()]++
		}
	}
	if len(seen) != 1 {
		t.Fatalf("failing builds reported %d different errors: %v", len(seen), seen)
	}
}

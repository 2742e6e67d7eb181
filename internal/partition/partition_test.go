package partition

import (
	"math/rand"
	"testing"

	"exactppr/internal/gen"
	"exactppr/internal/graph"
	"exactppr/internal/matching"
)

func TestUndirectedView(t *testing.T) {
	// 0→1 and 1→0 merge into one edge of weight 2; 1→2 weight 1.
	g := graph.FromAdjacency([][]int32{{1}, {0, 2}, {}})
	ug := undirectedView(g)
	if ug.numNodes() != 3 {
		t.Fatalf("numNodes = %d", ug.numNodes())
	}
	nbrs, wts := ug.neighbors(0)
	if len(nbrs) != 1 || nbrs[0] != 1 || wts[0] != 2 {
		t.Fatalf("neighbors(0) = %v %v", nbrs, wts)
	}
	nbrs, wts = ug.neighbors(1)
	if len(nbrs) != 2 {
		t.Fatalf("neighbors(1) = %v", nbrs)
	}
	if ug.totalWeight() != 3 {
		t.Fatalf("totalWeight = %d", ug.totalWeight())
	}
}

func TestCutWeight(t *testing.T) {
	g := graph.FromAdjacency([][]int32{{1}, {2}, {}})
	ug := undirectedView(g)
	if cut := ug.cutWeight([]int8{0, 0, 1}); cut != 1 {
		t.Fatalf("cut = %d, want 1", cut)
	}
	if cut := ug.cutWeight([]int8{0, 1, 0}); cut != 2 {
		t.Fatalf("cut = %d, want 2", cut)
	}
}

func TestHeavyEdgeMatchValid(t *testing.T) {
	g := gen.ErdosRenyi(200, 4, 3)
	ug := undirectedView(g)
	match := heavyEdgeMatch(ug, rand.New(rand.NewSource(1)))
	for v := int32(0); v < int32(ug.numNodes()); v++ {
		m := match[v]
		if m < 0 || int(m) >= ug.numNodes() {
			t.Fatalf("match[%d] = %d out of range", v, m)
		}
		if m != v && match[m] != v {
			t.Fatalf("matching not symmetric at %d↔%d", v, m)
		}
	}
}

func TestContractPreservesWeight(t *testing.T) {
	g := gen.ErdosRenyi(300, 3, 5)
	ug := undirectedView(g)
	match := heavyEdgeMatch(ug, rand.New(rand.NewSource(2)))
	cg, cmap := contract(ug, match)
	if cg.totalWeight() != ug.totalWeight() {
		t.Fatalf("vertex weight not preserved: %d vs %d", cg.totalWeight(), ug.totalWeight())
	}
	if cg.numNodes() >= ug.numNodes() {
		t.Fatalf("contract did not shrink: %d vs %d", cg.numNodes(), ug.numNodes())
	}
	// Total edge weight is preserved minus intra-pair edges.
	var fineW, coarseW int64
	for i := range ug.adjwgt {
		fineW += int64(ug.adjwgt[i])
	}
	for i := range cg.adjwgt {
		coarseW += int64(cg.adjwgt[i])
	}
	if coarseW > fineW {
		t.Fatalf("coarse edge weight grew: %d > %d", coarseW, fineW)
	}
	for v := range cmap {
		if cmap[v] < 0 || int(cmap[v]) >= cg.numNodes() {
			t.Fatalf("cmap[%d] = %d", v, cmap[v])
		}
	}
}

func TestPartitionErrors(t *testing.T) {
	g := graph.FromAdjacency([][]int32{{1}, {}})
	if _, err := Partition(g, 0, Options{}); err == nil {
		t.Fatal("k=0 should fail")
	}
	if _, err := Partition(g, 5, Options{}); err == nil {
		t.Fatal("k>n should fail")
	}
	if _, err := Partition(graph.FromAdjacency(nil), 1, Options{}); err == nil {
		t.Fatal("empty graph should fail")
	}
}

func TestPartitionK1(t *testing.T) {
	g := gen.ErdosRenyi(50, 2, 1)
	parts, err := Partition(g, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range parts {
		if p != 0 {
			t.Fatal("k=1 must place everything in part 0")
		}
	}
}

func TestPartitionTwoCliques(t *testing.T) {
	// Two 10-cliques joined by one edge: the bisector must find the cut.
	b := graph.NewBuilder(20)
	for i := int32(0); i < 10; i++ {
		for j := int32(0); j < 10; j++ {
			if i != j {
				b.AddEdge(i, j)
				b.AddEdge(i+10, j+10)
			}
		}
	}
	b.AddEdge(3, 13)
	g := b.Build()
	parts, err := Partition(g, 2, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// All of 0..9 must share a part, all of 10..19 the other.
	for i := 1; i < 10; i++ {
		if parts[i] != parts[0] {
			t.Fatalf("clique 1 split: %v", parts)
		}
		if parts[i+10] != parts[10] {
			t.Fatalf("clique 2 split: %v", parts)
		}
	}
	if parts[0] == parts[10] {
		t.Fatal("cliques not separated")
	}
	cut := CutEdges(g, parts)
	if len(cut) != 1 {
		t.Fatalf("cut edges = %v, want exactly the bridge", cut)
	}
}

func TestPartitionBalanced(t *testing.T) {
	for _, k := range []int{2, 4, 8} {
		g, err := gen.Dataset("email", 0.5, 7)
		if err != nil {
			t.Fatal(err)
		}
		parts, err := Partition(g, k, Options{Imbalance: 0.1, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		bal := Balance(parts, k, nil)
		// Recursive bisection compounds imbalance; allow some slack.
		if bal > 1.45 {
			t.Errorf("k=%d balance = %.3f, want ≤ 1.45", k, bal)
		}
		for _, p := range parts {
			if p < 0 || int(p) >= k {
				t.Fatalf("part id %d out of range", p)
			}
		}
	}
}

func TestPartitionCutQualityOnCommunities(t *testing.T) {
	// With planted communities and k = #communities the cut should be a
	// small fraction of edges.
	g, err := gen.Community(gen.Config{Nodes: 1200, AvgOutDegree: 6, Communities: 4, InterFrac: 0.02, Seed: 5, MinOutDegree: 1})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := Partition(g, 4, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cut := CutEdges(g, parts)
	frac := float64(len(cut)) / float64(g.NumEdges())
	if frac > 0.15 {
		t.Fatalf("cut fraction %.3f too high for planted communities", frac)
	}
}

func TestHubNodesSeparator2Way(t *testing.T) {
	g, err := gen.Dataset("email", 0.4, 9)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := Partition(g, 2, Options{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	hubs := HubNodes(g, parts, 2)
	if len(hubs) == 0 {
		t.Fatal("expected a nonempty hub set")
	}
	if !graph.IsSeparator(g, hubs, parts) {
		t.Fatal("hub set is not a separator")
	}
	// Hub set must cover all cut edges.
	if !matching.IsVertexCover(CutEdges(g, parts), hubs) {
		t.Fatal("hub set does not cover the cut")
	}
}

func TestHubNodesSeparatorKWay(t *testing.T) {
	g, err := gen.Dataset("email", 0.4, 10)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := Partition(g, 4, Options{Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	hubs := HubNodes(g, parts, 4)
	if !graph.IsSeparator(g, hubs, parts) {
		t.Fatal("k-way hub set is not a separator")
	}
}

func TestHubNodesKonigMinimality(t *testing.T) {
	// Star cut: nodes 1..5 in part 0 all point at node 0 in part 1.
	// König must pick just {0}; greedy would pick 2 nodes.
	b := graph.NewBuilder(6)
	for i := int32(1); i <= 5; i++ {
		b.AddEdge(i, 0)
	}
	g := b.Build()
	parts := []int32{1, 0, 0, 0, 0, 0}
	hubs := HubNodes(g, parts, 2)
	if len(hubs) != 1 || !hubs[0] {
		t.Fatalf("hubs = %v, want exactly {0}", hubs)
	}
}

func TestHubNodesNoCut(t *testing.T) {
	// Disconnected graph, parts along components: no cut, no hubs.
	g := graph.FromAdjacency([][]int32{{1}, {}, {3}, {}})
	hubs := HubNodes(g, []int32{0, 0, 1, 1}, 2)
	if len(hubs) != 0 {
		t.Fatalf("hubs = %v, want empty", hubs)
	}
}

func TestBalanceMetric(t *testing.T) {
	parts := []int32{0, 0, 0, 1}
	if got := Balance(parts, 2, nil); got != 1.5 {
		t.Fatalf("Balance = %v, want 1.5", got)
	}
	if got := Balance(parts, 2, map[int32]bool{0: true}); got != (2.0 * 2 / 3) {
		t.Fatalf("Balance with skip = %v", got)
	}
}

func TestPartitionDeterministic(t *testing.T) {
	g, _ := gen.Dataset("email", 0.3, 21)
	p1, err := Partition(g, 4, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := Partition(g, 4, Options{Seed: 5})
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("partition not deterministic for equal seeds")
		}
	}
}

func TestPartitionRandomGraphsSeparatorProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		n := 50 + rng.Intn(300)
		g := gen.ErdosRenyi(n, 2+rng.Float64()*3, int64(trial))
		k := 2 + rng.Intn(3)
		if k > n {
			k = n
		}
		parts, err := Partition(g, k, Options{Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		hubs := HubNodes(g, parts, k)
		if !graph.IsSeparator(g, hubs, parts) {
			t.Fatalf("trial %d: hub set not a separator", trial)
		}
	}
}

// BenchmarkPartition is one 2-way split of the serving benchmark's
// fixture graph (web×1, 12,000 nodes): undirected view, coarsening,
// initial bisection and FM refinement at every level.
func BenchmarkPartition(b *testing.B) {
	g, err := gen.Dataset("web", 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Partition(g, 2, Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

package fastppv

import (
	"errors"
	"testing"

	"exactppr/internal/gen"
	"exactppr/internal/graph"
	"exactppr/internal/ppr"
	"exactppr/internal/sparse"
)

func params() ppr.Params { return ppr.Params{Alpha: 0.15, Eps: 1e-8} }

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.Community(gen.Config{
		Nodes: 250, AvgOutDegree: 4, Communities: 3,
		InterFrac: 0.08, MinOutDegree: 1, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildIndexErrors(t *testing.T) {
	g := testGraph(t)
	if _, err := BuildIndex(g, 0, params(), 1); err == nil {
		t.Fatal("hubCount=0 should fail")
	}
	if _, err := BuildIndex(g, g.NumNodes()+1, params(), 1); err == nil {
		t.Fatal("hubCount>n should fail")
	}
	if _, err := BuildIndex(g, 5, ppr.Params{Alpha: 2, Eps: 1}, 1); err == nil {
		t.Fatal("bad params should fail")
	}
	restart := params()
	restart.Dangling = ppr.DanglingRestart
	if _, err := BuildIndex(g, 5, restart, 1); !errors.Is(err, ppr.ErrUnsupportedDangling) {
		t.Fatalf("DanglingRestart: err = %v, want ErrUnsupportedDangling", err)
	}
}

func TestUnlimitedBudgetNearExact(t *testing.T) {
	g := testGraph(t)
	ix, err := BuildIndex(g, 20, params(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []int32{0, 100, 249} {
		stats, err := ix.Query(u, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ppr.PowerIteration(g, u, params())
		if err != nil {
			t.Fatal(err)
		}
		if d := sparse.LInfDistance(stats.Result, want); d > 1e-4 {
			t.Errorf("u=%d: unlimited budget L∞ = %v", u, d)
		}
	}
}

func TestAccuracyImprovesWithBudget(t *testing.T) {
	g := testGraph(t)
	ix, err := BuildIndex(g, 25, params(), 2)
	if err != nil {
		t.Fatal(err)
	}
	u := int32(5)
	want, err := ppr.PowerIteration(g, u, params())
	if err != nil {
		t.Fatal(err)
	}
	var prevErr float64 = -1
	for _, budget := range []int{1, 8, 64, 0} {
		stats, err := ix.Query(u, budget)
		if err != nil {
			t.Fatal(err)
		}
		l1 := sparse.L1Distance(stats.Result, want)
		if prevErr >= 0 && l1 > prevErr+1e-9 {
			t.Errorf("budget %d: L1 error %v worse than smaller budget %v", budget, l1, prevErr)
		}
		prevErr = l1
	}
}

func TestDiscardedMassBoundsError(t *testing.T) {
	g := testGraph(t)
	ix, err := BuildIndex(g, 25, params(), 2)
	if err != nil {
		t.Fatal(err)
	}
	u := int32(60)
	want, err := ppr.PowerIteration(g, u, params())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := ix.Query(u, 2)
	if err != nil {
		t.Fatal(err)
	}
	l1 := sparse.L1Distance(stats.Result, want)
	// Discarded walk mass bounds the missing PPV mass (each unit of walk
	// mass yields at most 1 unit of PPV mass), modulo the ε tail.
	if l1 > stats.DiscardedMass+1e-3 {
		t.Fatalf("L1 error %v exceeds discarded mass %v", l1, stats.DiscardedMass)
	}
}

func TestQueryErrors(t *testing.T) {
	g := testGraph(t)
	ix, err := BuildIndex(g, 5, params(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Query(-1, 0); err == nil {
		t.Fatal("bad query should fail")
	}
}

func TestMoreHubsShiftWorkOffline(t *testing.T) {
	g := testGraph(t)
	small, err := BuildIndex(g, 5, params(), 2)
	if err != nil {
		t.Fatal(err)
	}
	big, err := BuildIndex(g, 50, params(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if small.SpaceBytes() >= big.SpaceBytes() {
		t.Fatalf("more hubs should mean a bigger index: %d vs %d",
			small.SpaceBytes(), big.SpaceBytes())
	}
	// Hub queries: with more hubs, a query's own partial vector is more
	// blocked, so unlimited-budget expansion count grows.
	u := int32(3)
	s1, err := small.Query(u, 0)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := big.Query(u, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Result.Len() == 0 || s2.Result.Len() == 0 {
		t.Fatal("empty results")
	}
}

func TestHeapScheduling(t *testing.T) {
	// The scheduler must expand highest-mass hubs first: with budget 1 on
	// a path into two hubs of unequal mass, the heavier hub's prime
	// vector must be included.
	//
	// 0 → 1 (hub, via double edge weight impossible in simple graphs) —
	// instead: 0→1 and 0→2→3 where 1 and 3 are hubs; mass at 1 is
	// (1−α)/2, at 3 it is (1−α)²/2 < mass at 1.
	g := graph.FromAdjacency([][]int32{{1, 2}, {}, {3}, {}})
	p := params()
	hubs := []int32{1, 3}
	ix := &Index{
		G: g, Params: p, Hubs: hubs,
		Prime:   map[int32]sparse.Packed{1: sparse.Pack(sparse.Vector{1: p.Alpha}), 3: sparse.Pack(sparse.Vector{3: p.Alpha})},
		Blocked: map[int32]sparse.Vector{1: {}, 3: {}},
		isHub:   []bool{false, true, false, true},
	}
	stats, err := ix.Query(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Expansions != 1 {
		t.Fatalf("expansions = %d", stats.Expansions)
	}
	if stats.Result.Get(1) == 0 {
		t.Fatal("budget-1 expansion skipped the heavier hub")
	}
	if stats.Result.Get(3) != 0 {
		t.Fatal("budget-1 expansion included the lighter hub")
	}
	if stats.DiscardedMass <= 0 {
		t.Fatal("lighter hub's mass must be reported as discarded")
	}
}

package montecarlo

import (
	"testing"

	"exactppr/internal/gen"
	"exactppr/internal/graph"
	"exactppr/internal/ppr"
	"exactppr/internal/sparse"
)

func params() ppr.Params { return ppr.Params{Alpha: 0.15, Eps: 1e-8} }

func TestErrors(t *testing.T) {
	if _, err := NewEngine(graph.FromAdjacency(nil)); err == nil {
		t.Fatal("empty graph should fail")
	}
	g := graph.FromAdjacency([][]int32{{1}, {0}})
	e, err := NewEngine(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Estimate(-1, 10, params(), 1); err == nil {
		t.Fatal("bad query should fail")
	}
	if _, err := e.Estimate(0, 0, params(), 1); err == nil {
		t.Fatal("zero walks should fail")
	}
	if _, err := e.Estimate(0, 10, ppr.Params{Alpha: 2, Eps: 1}, 1); err == nil {
		t.Fatal("bad params should fail")
	}
	if _, err := e.EstimateSharded(0, 2, 0, params(), 1); err == nil {
		t.Fatal("zero machines should fail")
	}
	if _, err := e.EstimateSharded(0, 2, 5, params(), 1); err == nil {
		t.Fatal("fewer walks than machines should fail")
	}
}

func TestEstimateIsDistribution(t *testing.T) {
	g := gen.ErdosRenyi(200, 3, 5)
	e, err := NewEngine(g)
	if err != nil {
		t.Fatal(err)
	}
	v, err := e.Estimate(0, 5000, params(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if s := v.Sum(); s > 1+1e-12 {
		t.Fatalf("estimate mass %v > 1", s)
	}
	for id, x := range v {
		if x < 0 {
			t.Fatalf("negative estimate at %d: %v", id, x)
		}
	}
}

func TestConvergesToPowerIteration(t *testing.T) {
	g := mustCfg()
	e, err := NewEngine(g)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ppr.PowerIteration(g, 5, params())
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := e.Estimate(5, 500, params(), 3)
	if err != nil {
		t.Fatal(err)
	}
	fine, err := e.Estimate(5, 50000, params(), 3)
	if err != nil {
		t.Fatal(err)
	}
	coarseErr := sparse.L1Distance(coarse, exact)
	fineErr := sparse.L1Distance(fine, exact)
	if fineErr >= coarseErr {
		t.Fatalf("more walks did not help: %v vs %v", fineErr, coarseErr)
	}
	// 1/√R scaling: 100× walks should cut L1 error by several times.
	if fineErr > coarseErr/2 {
		t.Fatalf("error reduction too small: %v vs %v", fineErr, coarseErr)
	}
	if d := sparse.LInfDistance(fine, exact); d > 0.02 {
		t.Fatalf("50k walks still far from exact: L∞ = %v", d)
	}
}

func mustCfg() *graph.Graph {
	g, err := gen.Community(gen.Config{
		Nodes: 150, AvgOutDegree: 4, Communities: 2,
		InterFrac: 0.1, MinOutDegree: 1, Seed: 9,
	})
	if err != nil {
		panic(err)
	}
	return g
}

func TestDeterministicForSeed(t *testing.T) {
	g := gen.ErdosRenyi(80, 3, 2)
	e, _ := NewEngine(g)
	a, err := e.Estimate(1, 1000, params(), 42)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := e.Estimate(1, 1000, params(), 42)
	if d := sparse.LInfDistance(a, b); d != 0 {
		t.Fatalf("not deterministic: %v", d)
	}
}

func TestShardedMatchesAggregate(t *testing.T) {
	g := gen.ErdosRenyi(150, 3, 4)
	e, _ := NewEngine(g)
	stats, err := e.EstimateSharded(2, 20000, 5, params(), 11)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BytesMerged <= 0 {
		t.Fatal("no merge bytes accounted")
	}
	if s := stats.Result.Sum(); s > 1+1e-9 {
		t.Fatalf("sharded mass %v > 1", s)
	}
	exact, err := ppr.PowerIteration(g, 2, params())
	if err != nil {
		t.Fatal(err)
	}
	if d := sparse.LInfDistance(stats.Result, exact); d > 0.05 {
		t.Fatalf("sharded estimate far off: %v", d)
	}
}

// TestShardedBytesMerged: each machine's share is accounted at its wire
// size, EncodedSizePacked of its count vector.
func TestShardedBytesMerged(t *testing.T) {
	g := gen.ErdosRenyi(3000, 3, 4)
	e, _ := NewEngine(g)
	const walks, machines, seed = 20001, 3, 11
	stats, err := e.EstimateSharded(2, walks, machines, params(), seed)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for m := range machines {
		share := sparse.Vector{}
		for node, c := range e.machineCounts(2, walks, machines, m, params(), seed) {
			share.Set(node, float64(c))
		}
		want += int64(sparse.EncodedSizePacked(sparse.Pack(share)))
	}
	if stats.BytesMerged != want {
		t.Fatalf("BytesMerged %d, want %d", stats.BytesMerged, want)
	}
}

func TestDanglingAbsorption(t *testing.T) {
	// 0 → 1 with 1 dangling: walks ending at 1 terminate there with
	// prob α after arriving; mass leaks like the exact semantics.
	g := graph.FromAdjacency([][]int32{{1}, {}})
	e, _ := NewEngine(g)
	v, err := e.Estimate(0, 200000, params(), 5)
	if err != nil {
		t.Fatal(err)
	}
	// Exact: r0 = α = 0.15, r1 = α(1−α) ≈ 0.1275.
	if d := v.Get(0) - 0.15; d > 0.01 || d < -0.01 {
		t.Fatalf("r0 ≈ %v, want ≈ 0.15", v.Get(0))
	}
	if d := v.Get(1) - 0.1275; d > 0.01 || d < -0.01 {
		t.Fatalf("r1 ≈ %v, want ≈ 0.1275", v.Get(1))
	}
}

func TestVirtualSinkAbsorption(t *testing.T) {
	// Virtual subgraph: walks that would leave the member set die.
	full := graph.FromAdjacency([][]int32{{1, 2}, {0}, {}})
	vs := graph.VirtualSubgraph(full, []int32{0, 1})
	e, _ := NewEngine(vs.G)
	v, err := e.Estimate(vs.Local(0), 100000, params(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if v.Get(vs.G.VirtualSink()) != 0 {
		t.Fatal("sink must not accumulate endpoint mass")
	}
	exact, err := ppr.PowerIteration(vs.G, vs.Local(0), params())
	if err != nil {
		t.Fatal(err)
	}
	if d := sparse.LInfDistance(v, exact); d > 0.01 {
		t.Fatalf("virtual-subgraph estimate off: %v", d)
	}
}

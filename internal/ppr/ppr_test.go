package ppr

import (
	"math"
	"math/rand"
	"testing"

	"exactppr/internal/gen"
	"exactppr/internal/graph"
	"exactppr/internal/sparse"
)

func tiny(alpha float64) Params { return Params{Alpha: alpha, Eps: 1e-9} }

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{Alpha: 0, Eps: 1e-4},
		{Alpha: 1, Eps: 1e-4},
		{Alpha: -0.1, Eps: 1e-4},
		{Alpha: 5e-324, Eps: 1e-4},
		{Alpha: 1e-7, Eps: 1e-4},
		{Alpha: 0.15, Eps: 0},
		{Alpha: 0.15, Eps: -1},
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Errorf("case %d: Validate(%+v) should fail", i, p)
		}
	}
	if err := Defaults().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPowerIterationTwoCycle(t *testing.T) {
	// 0 ↔ 1. Closed form: r0 = α/(1−(1−α)²), r1 = (1−α)·r0.
	g := graph.FromAdjacency([][]int32{{1}, {0}})
	a := 0.15
	r, err := PowerIteration(g, 0, tiny(a))
	if err != nil {
		t.Fatal(err)
	}
	want0 := a / (1 - (1-a)*(1-a))
	want1 := (1 - a) * want0
	if math.Abs(r.Get(0)-want0) > 1e-6 || math.Abs(r.Get(1)-want1) > 1e-6 {
		t.Fatalf("r = %v, want (%.6f, %.6f)", r, want0, want1)
	}
	if math.Abs(r.Sum()-1) > 1e-6 {
		t.Fatalf("cycle graph PPV must sum to 1, got %v", r.Sum())
	}
}

func TestPowerIterationDanglingAbsorb(t *testing.T) {
	// 0 → 1 with 1 dangling: r0 = α, r1 = α(1−α); mass leaks.
	g := graph.FromAdjacency([][]int32{{1}, {}})
	a := 0.2
	r, err := PowerIteration(g, 0, tiny(a))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Get(0)-a) > 1e-6 || math.Abs(r.Get(1)-a*(1-a)) > 1e-6 {
		t.Fatalf("r = %v, want (%v, %v)", r, a, a*(1-a))
	}
}

func TestPowerIterationDanglingRestart(t *testing.T) {
	// With restart, 0→1 behaves exactly like the 2-cycle.
	g := graph.FromAdjacency([][]int32{{1}, {}})
	a := 0.15
	p := tiny(a)
	p.Dangling = DanglingRestart
	r, err := PowerIteration(g, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	want0 := a / (1 - (1-a)*(1-a))
	if math.Abs(r.Get(0)-want0) > 1e-6 {
		t.Fatalf("r0 = %v, want %v", r.Get(0), want0)
	}
	if math.Abs(r.Sum()-1) > 1e-6 {
		t.Fatalf("restart policy must conserve mass, sum = %v", r.Sum())
	}
}

func TestPowerIterationErrors(t *testing.T) {
	g := graph.FromAdjacency([][]int32{{1}, {0}})
	if _, err := PowerIteration(g, 5, Defaults()); err == nil {
		t.Fatal("out-of-range query should fail")
	}
	if _, err := PowerIterationSet(g, nil, Defaults()); err == nil {
		t.Fatal("empty preference set should fail")
	}
	if _, err := PowerIteration(g, 0, Params{Alpha: 2, Eps: 1e-4}); err == nil {
		t.Fatal("bad params should fail")
	}
	vs := graph.VirtualSubgraph(g, []int32{0})
	if _, err := PowerIteration(vs.G, vs.G.VirtualSink(), Defaults()); err == nil {
		t.Fatal("querying the virtual sink should fail")
	}
}

func TestPowerIterationLinearity(t *testing.T) {
	// r_{P} for uniform P equals the average of the individual PPVs —
	// the linearity property of [25] that justifies single-node focus.
	g := gen.ErdosRenyi(80, 3, 4)
	p := tiny(0.15)
	pref := []int32{3, 17, 42}
	rset, err := PowerIterationSet(g, pref, p)
	if err != nil {
		t.Fatal(err)
	}
	avg := sparse.New(0)
	for _, q := range pref {
		r, err := PowerIteration(g, q, p)
		if err != nil {
			t.Fatal(err)
		}
		avg.AddScaled(r, 1.0/float64(len(pref)))
	}
	if d := sparse.LInfDistance(rset, avg); d > 1e-6 {
		t.Fatalf("linearity violated: L∞ = %v", d)
	}
}

func TestPPVBasicProperties(t *testing.T) {
	g := gen.ErdosRenyi(200, 4, 8)
	p := Params{Alpha: 0.15, Eps: 1e-8}
	for _, q := range []int32{0, 50, 199} {
		r, err := PowerIteration(g, q, p)
		if err != nil {
			t.Fatal(err)
		}
		for id, x := range r {
			if x < -1e-12 {
				t.Fatalf("negative PPV entry r[%d] = %v", id, x)
			}
		}
		if s := r.Sum(); s > 1+1e-6 {
			t.Fatalf("PPV sum %v > 1", s)
		}
		if r.Get(q) < p.Alpha-1e-6 {
			t.Fatalf("r[q] = %v < α", r.Get(q))
		}
	}
}

func TestPartialVectorNoHubsEqualsPPV(t *testing.T) {
	// With an empty hub set the partial vector IS the PPV (this is what
	// HGPA stores for leaf subgraphs).
	g := gen.ErdosRenyi(120, 3, 2)
	p := Params{Alpha: 0.15, Eps: 1e-9}
	for _, u := range []int32{0, 60} {
		partial, hubRes, err := PartialVector(g, u, nil, p)
		if err != nil {
			t.Fatal(err)
		}
		if hubRes.Len() != 0 {
			t.Fatalf("hub residual %v with no hubs", hubRes)
		}
		r, err := PowerIteration(g, u, p)
		if err != nil {
			t.Fatal(err)
		}
		if d := sparse.LInfDistance(partial.Unpack(), r); d > 1e-5 {
			t.Fatalf("u=%d: partial (no hubs) vs PPV L∞ = %v", u, d)
		}
	}
}

func TestPartialVectorBlockedByHubs(t *testing.T) {
	// Path 0→1→2: hub {1} blocks everything past it.
	g := graph.FromAdjacency([][]int32{{1}, {2}, {}})
	isHub := []bool{false, true, false}
	p := tiny(0.15)
	partial, hubRes, err := PartialVector(g, 0, isHub, p)
	if err != nil {
		t.Fatal(err)
	}
	if partial.Get(2) != 0 {
		t.Fatalf("tour 0→1→2 passes hub 1 but contributed: %v", partial)
	}
	if math.Abs(partial.Get(0)-0.15) > 1e-9 {
		t.Fatalf("p(0) = %v, want α", partial.Get(0))
	}
	// Hub targets get nothing (Definition 1): the walk mass freezes there.
	if partial.Get(1) != 0 {
		t.Fatalf("p(1) = %v, want 0 (hub target)", partial.Get(1))
	}
	if want := 0.85; math.Abs(hubRes.Get(1)-want) > 1e-9 {
		t.Fatalf("hub blocked mass = %v, want %v at node 1", hubRes, want)
	}
}

func TestPartialVectorHubSource(t *testing.T) {
	// The source may be a hub itself: it expands at step 0 (the start
	// position is exempt) but any LATER hub visit — including a return to
	// the source — freezes the walk. Cycle 0↔1 with H={0}: surviving
	// tours are ∅ (α at 0) and 0→1 (α(1−α) at 1); 0→1→0 revisits hub 0.
	g := graph.FromAdjacency([][]int32{{1}, {0}})
	isHub := []bool{true, false}
	p := tiny(0.15)
	partial, blocked, err := PartialVector(g, 0, isHub, p)
	if err != nil {
		t.Fatal(err)
	}
	a := 0.15
	if math.Abs(partial.Get(0)-a) > 1e-9 {
		t.Fatalf("p(0) = %v, want α (zero-length tour only)", partial.Get(0))
	}
	if want := a * (1 - a); math.Abs(partial.Get(1)-want) > 1e-9 {
		t.Fatalf("p(1) = %v, want %v", partial.Get(1), want)
	}
	// The return mass (1−α)² freezes at the source hub.
	if want := (1 - a) * (1 - a); math.Abs(blocked.Get(0)-want) > 1e-9 {
		t.Fatalf("blocked = %v, want %v at node 0", blocked, want)
	}
}

func TestPartialVectorErrors(t *testing.T) {
	g := graph.FromAdjacency([][]int32{{1}, {}})
	if _, _, err := PartialVector(g, 9, nil, Defaults()); err == nil {
		t.Fatal("bad source should fail")
	}
	if _, _, err := PartialVector(g, 0, []bool{true}, Defaults()); err == nil {
		t.Fatal("short isHub should fail")
	}
}

func TestSkeletonMatchesPowerIteration(t *testing.T) {
	// s_u(h) = r_u(h) (Definition 2): reverse push from h must agree with
	// a fresh power iteration per source.
	g := gen.ErdosRenyi(60, 3, 9)
	p := Params{Alpha: 0.15, Eps: 1e-10}
	h := int32(7)
	sk, err := SkeletonVector(g, h, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []int32{0, 7, 30, 59} {
		r, err := PowerIteration(g, u, p)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(sk.Get(u) - r.Get(h)); d > 1e-6 {
			t.Fatalf("s_%d(%d) = %v, power iteration says %v (Δ=%v)", u, h, sk.Get(u), r.Get(h), d)
		}
	}
}

func TestSkeletonDenseAgrees(t *testing.T) {
	g := gen.ErdosRenyi(80, 3, 10)
	p := Params{Alpha: 0.15, Eps: 1e-9}
	h := int32(11)
	fast, err := SkeletonVector(g, h, p)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := SkeletonForHubDense(g, h, p)
	if err != nil {
		t.Fatal(err)
	}
	for u := range dense {
		if d := math.Abs(fast.Get(int32(u)) - dense[u]); d > 1e-5 {
			t.Fatalf("node %d: push %v vs dense %v", u, fast.Get(int32(u)), dense[u])
		}
	}
}

func TestSkeletonErrors(t *testing.T) {
	g := graph.FromAdjacency([][]int32{{1}, {0}})
	if _, err := SkeletonVector(g, -1, Defaults()); err == nil {
		t.Fatal("bad hub should fail")
	}
	if _, err := SkeletonForHubDense(g, 5, Defaults()); err == nil {
		t.Fatal("bad hub should fail (dense)")
	}
}

// TestDecompositionIdentity verifies the Jeh–Widom construction (Eq. 4):
//
//	r_u = p_u + (1/α)·Σ_{h∈H} (s_u(h) − α·f_u(h)) · (p_h − α·x_h)
//
// on random graphs with random hub sets, for hub and non-hub query nodes.
// This is the exactness foundation of both GPA and HGPA (Theorems 1, 3).
func TestDecompositionIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	p := Params{Alpha: 0.15, Eps: 1e-10}
	for trial := 0; trial < 8; trial++ {
		n := 30 + rng.Intn(60)
		g := gen.ErdosRenyi(n, 2.5, int64(trial+100))
		isHub := make([]bool, n)
		var hubs []int32
		for v := 0; v < n; v++ {
			if rng.Float64() < 0.15 {
				isHub[v] = true
				hubs = append(hubs, int32(v))
			}
		}
		queries := []int32{int32(rng.Intn(n))}
		if len(hubs) > 0 {
			queries = append(queries, hubs[0]) // exercise the u∈H case
		}
		// Pre-compute hub partial vectors and skeletons.
		hubPartials := make(map[int32]sparse.Vector, len(hubs))
		for _, h := range hubs {
			ph, _, err := PartialVector(g, h, isHub, p)
			if err != nil {
				t.Fatal(err)
			}
			hubPartials[h] = ph.Unpack()
		}
		skeleton := make(map[int32]sparse.Packed, len(hubs))
		for _, h := range hubs {
			s, err := SkeletonVector(g, h, p)
			if err != nil {
				t.Fatal(err)
			}
			skeleton[h] = s
		}
		for _, u := range queries {
			pu, _, err := PartialVector(g, u, isHub, p)
			if err != nil {
				t.Fatal(err)
			}
			constructed := pu.Unpack()
			for _, h := range hubs {
				su := skeleton[h].Get(u)
				if u == h {
					su -= p.Alpha // S_u(h) = s_u(h) − α·f_u(h)
				}
				if su == 0 {
					continue
				}
				adjusted := hubPartials[h].Clone()
				adjusted.Add(h, -p.Alpha) // P_h = p_h − α·x_h
				constructed.AddScaled(adjusted, su/p.Alpha)
			}
			// Every hub-target entry comes straight from the skeleton
			// (P_h vanishes on all hub entries; see PartialVector docs).
			for _, h := range hubs {
				constructed.Set(h, skeleton[h].Get(u))
			}
			want, err := PowerIteration(g, u, p)
			if err != nil {
				t.Fatal(err)
			}
			if d := sparse.LInfDistance(constructed, want); d > 1e-5 {
				t.Fatalf("trial %d u=%d (hub=%v): Eq.4 violated, L∞ = %v",
					trial, u, isHub[u], d)
			}
		}
	}
}

// TestTheorem2 verifies that the partial vector w.r.t. a separator hub set
// equals the local PPV on the virtual subgraph (Theorem 2).
func TestTheorem2(t *testing.T) {
	// Two communities joined only through hub node 4:
	// part A = {0,1,2,3}, hub = {4}, part B = {5,6,7}.
	adj := [][]int32{
		{1, 2}, {2, 3}, {0, 3}, {4}, // A, 3→4 crosses into the hub
		{5},           // hub 4 → B
		{6}, {7}, {5}, // B cycle-ish
	}
	g := graph.FromAdjacency(adj)
	isHub := make([]bool, g.NumNodes())
	isHub[4] = true
	p := Params{Alpha: 0.15, Eps: 1e-10}

	members := []int32{0, 1, 2, 3}
	vs := graph.VirtualSubgraph(g, members)
	for _, u := range members {
		partial, _, err := PartialVector(g, u, isHub, p)
		if err != nil {
			t.Fatal(err)
		}
		local, err := PowerIteration(vs.G, vs.Local(u), p)
		if err != nil {
			t.Fatal(err)
		}
		// Map local PPV back to global ids for comparison.
		global := sparse.New(local.Len())
		for lid, x := range local {
			global.Set(vs.Parent(lid), x)
		}
		if d := sparse.LInfDistance(partial.Unpack(), global); d > 1e-6 {
			t.Fatalf("u=%d: Theorem 2 violated, L∞ = %v\npartial=%v\nlocal  =%v",
				u, d, partial, global)
		}
	}
}

// TestTheorem2Random repeats Theorem 2 on random community graphs with
// partition-derived separators.
func TestTheorem2Random(t *testing.T) {
	g, err := gen.Community(gen.Config{Nodes: 300, AvgOutDegree: 4, Communities: 2, InterFrac: 0.05, Seed: 6, MinOutDegree: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Simple deterministic 2-way split by id (communities are contiguous),
	// hubs = greedy cover of the cut.
	parts := make([]int32, g.NumNodes())
	for i := range parts {
		if i >= g.NumNodes()/2 {
			parts[i] = 1
		}
	}
	isHub := make([]bool, g.NumNodes())
	for u := int32(0); u < int32(g.NumNodes()); u++ {
		for _, v := range g.Out(u) {
			if parts[u] != parts[v] {
				isHub[u] = true // crude cover: take all boundary tails
			}
		}
	}
	var members []int32
	for u := int32(0); u < int32(g.NumNodes()); u++ {
		if parts[u] == 0 && !isHub[u] {
			members = append(members, u)
		}
	}
	vs := graph.VirtualSubgraph(g, members)
	p := Params{Alpha: 0.15, Eps: 1e-9}
	for i := 0; i < 5; i++ {
		u := members[i*len(members)/5]
		partial, _, err := PartialVector(g, u, isHub, p)
		if err != nil {
			t.Fatal(err)
		}
		local, err := PowerIteration(vs.G, vs.Local(u), p)
		if err != nil {
			t.Fatal(err)
		}
		global := sparse.New(local.Len())
		for lid, x := range local {
			global.Set(vs.Parent(lid), x)
		}
		if d := sparse.LInfDistance(partial.Unpack(), global); d > 1e-5 {
			t.Fatalf("u=%d: Theorem 2 violated on random graph, L∞ = %v", u, d)
		}
	}
}

// isHub covering only boundary tails is not a vertex cover of the cut in
// general (heads on the other side stay); verify the test premise: tours
// from part-0 non-hub members cannot leave part 0 without passing a hub.
func TestTheorem2RandomPremise(t *testing.T) {
	g, err := gen.Community(gen.Config{Nodes: 200, AvgOutDegree: 4, Communities: 2, InterFrac: 0.05, Seed: 8, MinOutDegree: 1})
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]int32, g.NumNodes())
	for i := range parts {
		if i >= g.NumNodes()/2 {
			parts[i] = 1
		}
	}
	isHub := make([]bool, g.NumNodes())
	for u := int32(0); u < int32(g.NumNodes()); u++ {
		for _, v := range g.Out(u) {
			if parts[u] != parts[v] {
				isHub[u] = true
			}
		}
	}
	// Every edge from a part-0 non-hub lands in part 0 (or a hub): OUT
	// edges crossing imply tail is a hub by construction. In-edges from
	// part 1 don't matter for forward tours.
	for u := int32(0); u < int32(g.NumNodes()); u++ {
		if parts[u] != 0 || isHub[u] {
			continue
		}
		for _, v := range g.Out(u) {
			if parts[v] != 0 && !isHub[v] {
				t.Fatalf("edge (%d,%d) escapes part 0 without a hub", u, v)
			}
		}
	}
}

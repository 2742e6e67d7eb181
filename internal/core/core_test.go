package core

import (
	"errors"
	"math"
	"testing"

	"exactppr/internal/gen"
	"exactppr/internal/graph"
	"exactppr/internal/hierarchy"
	"exactppr/internal/ppr"
	"exactppr/internal/sparse"
)

func tightParams() ppr.Params { return ppr.Params{Alpha: 0.15, Eps: 1e-9} }

func testGraph(t *testing.T, seed int64) *graph.Graph {
	t.Helper()
	g, err := gen.Community(gen.Config{
		Nodes: 400, AvgOutDegree: 4, Communities: 4,
		InterFrac: 0.05, MinOutDegree: 1, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func buildStore(t *testing.T, g *graph.Graph, opts hierarchy.Options) *Store {
	t.Helper()
	s, err := BuildHGPA(g, opts, tightParams(), 2)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// sampleQueries picks a spread of query nodes including hubs of several
// levels, the regression-prone cases.
func sampleQueries(s *Store) []int32 {
	n := s.H.G.NumNodes()
	queries := []int32{0, int32(n / 3), int32(n - 1)}
	seenLevel := map[int]bool{}
	for u := int32(0); u < int32(n); u++ {
		if s.H.IsHub(u) && !seenLevel[s.H.HubLevel(u)] {
			seenLevel[s.H.HubLevel(u)] = true
			queries = append(queries, u)
			if len(seenLevel) >= 3 {
				break
			}
		}
	}
	return queries
}

// TestHGPAExactness is Theorem 3: HGPA's construction equals power
// iteration (within the ε-driven bound) for hub and non-hub queries.
func TestHGPAExactness(t *testing.T) {
	g := testGraph(t, 1)
	s := buildStore(t, g, hierarchy.Options{Seed: 2})
	for _, u := range sampleQueries(s) {
		got, err := s.Query(u)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ppr.PowerIteration(g, u, tightParams())
		if err != nil {
			t.Fatal(err)
		}
		if d := sparse.LInfDistance(got, want); d > 1e-4 {
			t.Errorf("u=%d (hub level %d): L∞ = %v", u, s.H.HubLevel(u), d)
		}
		if d := sparse.L1Distance(got, want) / float64(g.NumNodes()); d > 1e-6 {
			t.Errorf("u=%d: avg L1 = %v", u, d)
		}
	}
}

// TestGPAExactness is Theorem 1: the single-level construction matches
// power iteration too.
func TestGPAExactness(t *testing.T) {
	g := testGraph(t, 3)
	s, err := BuildGPA(g, 4, tightParams(), 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if s.H.Depth() != 2 {
		t.Fatalf("GPA should have exactly root+leaves, depth=%d", s.H.Depth())
	}
	for _, u := range sampleQueries(s) {
		got, err := s.Query(u)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ppr.PowerIteration(g, u, tightParams())
		if err != nil {
			t.Fatal(err)
		}
		if d := sparse.LInfDistance(got, want); d > 1e-4 {
			t.Errorf("u=%d: GPA L∞ = %v", u, d)
		}
	}
}

// TestGPAEqualsHGPA: Theorem 3's statement — both algorithms compute the
// same vector.
func TestGPAEqualsHGPA(t *testing.T) {
	g := testGraph(t, 5)
	gpa, err := BuildGPA(g, 4, tightParams(), 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	hgpa := buildStore(t, g, hierarchy.Options{Seed: 11})
	for _, u := range []int32{1, 100, 399} {
		a, err := gpa.Query(u)
		if err != nil {
			t.Fatal(err)
		}
		b, err := hgpa.Query(u)
		if err != nil {
			t.Fatal(err)
		}
		if d := sparse.LInfDistance(a, b); d > 2e-4 {
			t.Errorf("u=%d: GPA vs HGPA L∞ = %v", u, d)
		}
	}
}

// TestShardsSumToQuery: the distributed decomposition is exact — the sum
// of the per-machine vectors equals the centralized result, for any
// machine count (§4.4, Theorem 4's setting).
func TestShardsSumToQuery(t *testing.T) {
	g := testGraph(t, 8)
	s := buildStore(t, g, hierarchy.Options{Seed: 4})
	for _, n := range []int{1, 2, 3, 6, 10} {
		shards, err := Split(s, n)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range sampleQueries(s) {
			want, err := s.Query(u)
			if err != nil {
				t.Fatal(err)
			}
			sum := sparse.New(64)
			for _, sh := range shards {
				v, err := sh.Query(u)
				if err != nil {
					t.Fatal(err)
				}
				sum.AddScaled(v, 1)
			}
			if d := sparse.LInfDistance(sum, want); d > 1e-12 {
				t.Errorf("n=%d u=%d: shard sum L∞ = %v (must be exact)", n, u, d)
			}
		}
	}
}

func TestSplitCoversStore(t *testing.T) {
	g := testGraph(t, 9)
	s := buildStore(t, g, hierarchy.Options{Seed: 5})
	shards, err := Split(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	hubs, leaves := 0, 0
	var bytes int64
	for _, sh := range shards {
		hubs += sh.HubCount()
		leaves += sh.LeafCount()
		bytes += sh.SpaceBytes()
	}
	if hubs != s.HubPartial.Len() {
		t.Fatalf("shards own %d hubs, store has %d", hubs, s.HubPartial.Len())
	}
	if leaves != s.LeafPPV.Len() {
		t.Fatalf("shards own %d leaves, store has %d", leaves, s.LeafPPV.Len())
	}
	if bytes != s.SpaceBytes() {
		t.Fatalf("shard bytes %d ≠ store bytes %d (no redundancy allowed)", bytes, s.SpaceBytes())
	}
	if _, err := Split(s, 0); err == nil {
		t.Fatal("Split(0) should fail")
	}
}

func TestShardLoadBalance(t *testing.T) {
	g := testGraph(t, 12)
	s := buildStore(t, g, hierarchy.Options{Seed: 6})
	shards, err := Split(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	minH, maxH := math.MaxInt, 0
	for _, sh := range shards {
		if c := sh.HubCount(); c < minH {
			minH = c
		}
		if c := sh.HubCount(); c > maxH {
			maxH = c
		}
	}
	// Per-subgraph round robin keeps the counts within #subgraphs of each
	// other; with many subgraphs the relative imbalance must stay small.
	if maxH-minH > len(s.H.Nodes()) {
		t.Fatalf("hub imbalance %d..%d over %d tree nodes", minH, maxH, len(s.H.Nodes()))
	}
}

func TestQueryErrors(t *testing.T) {
	g := testGraph(t, 13)
	s := buildStore(t, g, hierarchy.Options{Seed: 7})
	if _, err := s.Query(-1); err == nil {
		t.Fatal("negative query should fail")
	}
	if _, err := s.Query(int32(g.NumNodes())); err == nil {
		t.Fatal("out-of-range query should fail")
	}
	shards, _ := Split(s, 2)
	if _, err := shards[0].Query(-5); err == nil {
		t.Fatal("shard query out of range should fail")
	}
}

func TestPrecomputeParamErrors(t *testing.T) {
	g := testGraph(t, 14)
	h, err := hierarchy.Build(g, hierarchy.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Precompute(h, ppr.Params{Alpha: 5, Eps: 1e-4}, 1); err == nil {
		t.Fatal("invalid params should fail")
	}
}

func TestTruncateHGPAad(t *testing.T) {
	g := testGraph(t, 15)
	s := buildStore(t, g, hierarchy.Options{Seed: 8})
	ad := s.Clone()
	dropped := ad.Truncate(1e-4)
	if dropped == 0 {
		t.Fatal("expected some entries below 1e-4")
	}
	if ad.SpaceBytes() >= s.SpaceBytes() {
		t.Fatal("truncation must shrink the store")
	}
	// HGPA_ad stays close to exact: L∞ within the truncation magnitude.
	u := int32(10)
	exact, err := s.Query(u)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := ad.Query(u)
	if err != nil {
		t.Fatal(err)
	}
	if d := sparse.LInfDistance(exact, approx); d > 5e-2 {
		t.Fatalf("HGPA_ad drifted too far: L∞ = %v", d)
	}
	// Original store unaffected by the clone's truncation.
	again, _ := s.Query(u)
	if d := sparse.LInfDistance(exact, again); d != 0 {
		t.Fatal("Truncate on clone mutated the original")
	}
}

func TestStats(t *testing.T) {
	g := testGraph(t, 16)
	s := buildStore(t, g, hierarchy.Options{Seed: 9})
	st := s.Stats()
	if st.Hubs != s.HubPartial.Len() || st.Leaves != s.LeafPPV.Len() {
		t.Fatalf("stats mismatch: %+v", st)
	}
	if st.Hubs+st.Leaves != g.NumNodes() {
		t.Fatalf("hubs %d + leaves %d ≠ |V| %d", st.Hubs, st.Leaves, g.NumNodes())
	}
	if st.Bytes <= 0 || st.GraphNodes != g.NumNodes() {
		t.Fatalf("stats: %+v", st)
	}
}

// TestJWExactness: the brute-force baseline is exact too (it shares the
// construction identity with a flat, non-separator hub set).
func TestJWExactness(t *testing.T) {
	g := gen.ErdosRenyi(150, 3, 21)
	s, err := PrecomputeJW(g, 12, tightParams(), 2)
	if err != nil {
		t.Fatal(err)
	}
	queries := []int32{0, 75, 149, s.Hubs[0]}
	for _, u := range queries {
		got, err := s.Query(u)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ppr.PowerIteration(g, u, tightParams())
		if err != nil {
			t.Fatal(err)
		}
		if d := sparse.LInfDistance(got, want); d > 1e-4 {
			t.Errorf("JW u=%d: L∞ = %v", u, d)
		}
	}
}

func TestJWErrors(t *testing.T) {
	g := gen.ErdosRenyi(20, 2, 1)
	if _, err := PrecomputeJW(g, 100, tightParams(), 1); err == nil {
		t.Fatal("hubCount > n should fail")
	}
	s, err := PrecomputeJW(g, 3, tightParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(99); err == nil {
		t.Fatal("out-of-range query should fail")
	}
	if s.SpaceBytes() <= 0 {
		t.Fatal("space must be positive")
	}
}

// TestHGPASpaceSmallerThanJW reproduces the headline space claim of §3.2:
// separator hubs confine partial vectors, so HGPA stores far fewer
// entries than PPV-JW on a community graph.
func TestHGPASpaceSmallerThanJW(t *testing.T) {
	g := testGraph(t, 30)
	params := ppr.Params{Alpha: 0.15, Eps: 1e-6}
	hgpa, err := BuildHGPA(g, hierarchy.Options{Seed: 3}, params, 2)
	if err != nil {
		t.Fatal(err)
	}
	jw, err := PrecomputeJW(g, hgpa.H.TotalHubs(), params, 2)
	if err != nil {
		t.Fatal(err)
	}
	if hgpa.SpaceBytes() >= jw.SpaceBytes() {
		t.Fatalf("HGPA %d bytes ≥ PPV-JW %d bytes — partition should win",
			hgpa.SpaceBytes(), jw.SpaceBytes())
	}
}

// TestMultiFanoutExactness covers the multi-way partitioning of §6.2.5.
func TestMultiFanoutExactness(t *testing.T) {
	g := testGraph(t, 31)
	for _, fanout := range []int{4, 8} {
		s := buildStore(t, g, hierarchy.Options{Fanout: fanout, Seed: 13})
		u := int32(42)
		got, err := s.Query(u)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ppr.PowerIteration(g, u, tightParams())
		if err != nil {
			t.Fatal(err)
		}
		if d := sparse.LInfDistance(got, want); d > 1e-4 {
			t.Errorf("fanout=%d: L∞ = %v", fanout, d)
		}
	}
}

// TestLevelCapExactness covers restricted hierarchies (§6.2.4).
func TestLevelCapExactness(t *testing.T) {
	g := testGraph(t, 32)
	for _, ml := range []int{1, 2, 4} {
		s := buildStore(t, g, hierarchy.Options{MaxLevels: ml, Seed: 17})
		u := int32(7)
		got, err := s.Query(u)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ppr.PowerIteration(g, u, tightParams())
		if err != nil {
			t.Fatal(err)
		}
		if d := sparse.LInfDistance(got, want); d > 1e-4 {
			t.Errorf("MaxLevels=%d: L∞ = %v", ml, d)
		}
	}
}

// TestQueryWorkScalesDown: the deterministic per-machine load metric must
// fall as machines grow — the mechanism behind Figure 10.
func TestQueryWorkScalesDown(t *testing.T) {
	g := testGraph(t, 90)
	s := buildStore(t, g, hierarchy.Options{Seed: 90})
	work := func(machines int) int64 {
		shards, err := Split(s, machines)
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, u := range []int32{5, 111, 333} {
			var maxW int64
			for _, sh := range shards {
				w, err := sh.QueryWork(u)
				if err != nil {
					t.Fatal(err)
				}
				if w > maxW {
					maxW = w
				}
			}
			total += maxW
		}
		return total
	}
	w2, w8 := work(2), work(8)
	if w8 >= w2 {
		t.Fatalf("max work did not fall: %d @2 machines vs %d @8", w2, w8)
	}
	// Expect at least ~2x improvement for 4x machines (imperfect split).
	if w8 > w2/2 {
		t.Fatalf("max work fell too little: %d → %d", w2, w8)
	}
	if _, err := Split(s, 2); err != nil {
		t.Fatal(err)
	}
	shards, _ := Split(s, 2)
	if _, err := shards[0].QueryWork(-1); err == nil {
		t.Fatal("bad node should fail")
	}
}

// TestQueryWorkReportsMissingVector: a slice that lacks a partial its
// fold needs fails QueryWork with the fold's ErrMissingVector, instead
// of reporting the missing vector's entries as work not done.
func TestQueryWorkReportsMissingVector(t *testing.T) {
	g := testGraph(t, 90)
	s := buildStore(t, g, hierarchy.Options{Seed: 90})
	shards, err := Split(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	sl := shards[0]
	for u := int32(0); u < int32(g.NumNodes()); u++ {
		row, err := sl.pathHubs(u, sl.own, new(planRow))
		if err != nil {
			t.Fatal(err)
		}
		for i, h := range row.hubs {
			if h == u || row.s[i] == 0 {
				continue
			}
			sl.HubPartial = withoutVector(t, sl.HubPartial, h)
			if _, err := sl.Query(u); !errors.Is(err, ErrMissingVector) {
				t.Fatalf("u=%d without hub %d's partial: Query err = %v, want ErrMissingVector", u, h, err)
			}
			if w, err := sl.QueryWork(u); !errors.Is(err, ErrMissingVector) {
				t.Fatalf("u=%d without hub %d's partial: QueryWork = %d, %v; want ErrMissingVector", u, h, w, err)
			}
			return
		}
	}
	t.Fatal("no query node has a path hub with a non-zero skeleton value")
}

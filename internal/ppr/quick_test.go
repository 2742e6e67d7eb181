package ppr

import (
	"math/rand"
	"testing"

	"exactppr/internal/graph"
	"exactppr/internal/sparse"
)

// randomGraph builds a small arbitrary digraph from an RNG.
func randomGraph(rng *rand.Rand) *graph.Graph {
	n := 2 + rng.Intn(30)
	b := graph.NewBuilder(n)
	for e := 0; e < rng.Intn(4*n); e++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	return b.Build()
}

// Property: PPVs are sub-probability vectors with r(q) ≥ α−ε for every
// graph, including graphs with dangling nodes.
func TestQuickPPVIsSubProbability(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	p := Params{Alpha: 0.15, Eps: 1e-8}
	for trial := 0; trial < 60; trial++ {
		g := randomGraph(rng)
		q := int32(rng.Intn(g.NumNodes()))
		r, err := PowerIteration(g, q, p)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for id, x := range r {
			if x < -1e-12 {
				t.Fatalf("trial %d: negative entry at %d: %v", trial, id, x)
			}
			sum += x
		}
		if sum > 1+1e-6 {
			t.Fatalf("trial %d: mass %v > 1", trial, sum)
		}
		if r.Get(q) < p.Alpha-1e-6 {
			t.Fatalf("trial %d: r(q) = %v < α", trial, r.Get(q))
		}
	}
}

// Property: blocking can only remove tour weight — the partial vector is
// entrywise at most the full PPV, for arbitrary graphs and hub sets.
func TestQuickPartialDominatedByPPV(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	p := Params{Alpha: 0.15, Eps: 1e-9}
	for trial := 0; trial < 40; trial++ {
		g := randomGraph(rng)
		n := g.NumNodes()
		isHub := make([]bool, n)
		for v := 0; v < n; v++ {
			isHub[v] = rng.Float64() < 0.2
		}
		u := int32(rng.Intn(n))
		partial, _, err := PartialVector(g, u, isHub, p)
		if err != nil {
			t.Fatal(err)
		}
		full, err := PowerIteration(g, u, p)
		if err != nil {
			t.Fatal(err)
		}
		partial.ForEach(func(id int32, x float64) {
			if x > full.Get(id)+1e-6 {
				t.Fatalf("trial %d: partial(%d)=%v > PPV %v", trial, id, x, full.Get(id))
			}
		})
	}
}

// Property: the partial vector plus the blocked hub mass conserves the
// walk probability that the full PPV accounts for: p.Sum()/α + blocked
// mass scaled appropriately never exceeds 1.
func TestQuickPartialMassConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	p := Params{Alpha: 0.2, Eps: 1e-9}
	for trial := 0; trial < 40; trial++ {
		g := randomGraph(rng)
		n := g.NumNodes()
		isHub := make([]bool, n)
		for v := 0; v < n; v++ {
			isHub[v] = rng.Float64() < 0.25
		}
		u := int32(rng.Intn(n))
		partial, blocked, err := PartialVector(g, u, isHub, p)
		if err != nil {
			t.Fatal(err)
		}
		// partial.Sum() counts ended walks ×α... total walk mass that
		// either ended (sum/α·α = sum) or froze (blocked) or absorbed
		// cannot exceed 1.
		if total := partial.Sum() + blocked.Sum(); total > 1+1e-6 {
			t.Fatalf("trial %d: ended %v + blocked %v > 1", trial, partial.Sum(), blocked.Sum())
		}
	}
}

// Property: skeleton values are valid PPV entries — s_u(h) ∈ [0, 1] and
// s_h(h) ≥ α.
func TestQuickSkeletonRange(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	p := Params{Alpha: 0.15, Eps: 1e-9}
	for trial := 0; trial < 40; trial++ {
		g := randomGraph(rng)
		h := int32(rng.Intn(g.NumNodes()))
		sk, err := SkeletonVector(g, h, p)
		if err != nil {
			t.Fatal(err)
		}
		sk.ForEach(func(u int32, x float64) {
			if x < -1e-12 || x > 1+1e-9 {
				t.Fatalf("trial %d: s_%d(%d) = %v out of range", trial, u, h, x)
			}
		})
		if sk.Get(h) < p.Alpha-1e-6 {
			t.Fatalf("trial %d: s_h(h) = %v < α", trial, sk.Get(h))
		}
	}
}

// Property: PageRank sums to ≤1 (absorb) or ≈1 (restart) and TopPageRank
// returns a sorted prefix.
func TestQuickPageRank(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(rng)
		for _, dangling := range []DanglingPolicy{DanglingAbsorb, DanglingRestart} {
			p := Params{Alpha: 0.15, Eps: 1e-9, Dangling: dangling}
			pr, err := PageRank(g, p)
			if err != nil {
				t.Fatal(err)
			}
			var sum float64
			for _, x := range pr {
				if x < -1e-12 {
					t.Fatal("negative PageRank")
				}
				sum += x
			}
			if sum > 1+1e-6 {
				t.Fatalf("PageRank mass %v > 1", sum)
			}
			if dangling == DanglingRestart && sum < 1-1e-4 {
				t.Fatalf("restart policy must conserve mass, got %v", sum)
			}
			top, err := TopPageRank(g, 5, p)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < len(top); i++ {
				if pr[top[i-1]] < pr[top[i]] {
					t.Fatal("TopPageRank not sorted by score")
				}
			}
		}
	}
}

// Property: decomposition linearity — r_P for a uniform pair equals the
// average of the two single-node PPVs (arbitrary graphs).
func TestQuickSetLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	p := Params{Alpha: 0.15, Eps: 1e-9}
	for trial := 0; trial < 25; trial++ {
		g := randomGraph(rng)
		if g.NumNodes() < 2 {
			continue
		}
		a := int32(rng.Intn(g.NumNodes()))
		b := int32(rng.Intn(g.NumNodes()))
		if a == b {
			continue
		}
		set, err := PowerIterationSet(g, []int32{a, b}, p)
		if err != nil {
			t.Fatal(err)
		}
		ra, _ := PowerIteration(g, a, p)
		rb, _ := PowerIteration(g, b, p)
		avg := sparse.New(0)
		avg.AddScaled(ra, 0.5)
		avg.AddScaled(rb, 0.5)
		if d := sparse.LInfDistance(set, avg); d > 1e-6 {
			t.Fatalf("trial %d: linearity violated by %v", trial, d)
		}
	}
}

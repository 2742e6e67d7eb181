package ppr

import (
	"errors"
	"math/rand"
	"testing"

	"exactppr/internal/graph"
)

func randomHubs(rng *rand.Rand, n int) []bool {
	isHub := make([]bool, n)
	for v := range isHub {
		isHub[v] = rng.Float64() < 0.2
	}
	return isHub
}

// Push termination: when the push cap is not hit, every residual left
// behind is at most Eps — the invariant that bounds each entry within
// Eps/α of the fixed point. Checked for adversarial Eps values across
// both directions.
func TestPushTerminationRespectsEps(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, eps := range []float64{0.5, 1e-2, 3.7e-5, 1e-8, 2.3e-11} {
		for trial := 0; trial < 15; trial++ {
			g := randomGraph(rng)
			n := g.NumNodes()
			u := int32(rng.Intn(n))
			p := Params{Alpha: 0.15, Eps: eps}
			st, err := pushPartial(g, u, randomHubs(rng, n), p, nil)
			if err != nil {
				t.Fatal(err)
			}
			checkResiduals(t, "partial", &st, eps)
			st, err = pushSkeleton(g, u, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			checkResiduals(t, "skeleton", &st, eps)
		}
	}
}

func checkResiduals(t *testing.T, tag string, st *pushState, eps float64) {
	t.Helper()
	for _, id := range st.touched {
		if st.res[id] > eps {
			t.Fatalf("%s: residual %v > eps %v at node %d after termination", tag, st.res[id], eps, id)
		}
	}
}

// Validate must reject negative MaxIter and unknown dangling policies;
// ValidatePrecompute also rejects DanglingRestart.
func TestValidateMaxIterAndDangling(t *testing.T) {
	base := Params{Alpha: 0.15, Eps: 1e-4}
	if err := base.ValidatePrecompute(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	bad := base
	bad.MaxIter = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("MaxIter = -1 accepted")
	}
	for _, d := range []DanglingPolicy{-1, 2, 7} {
		bad = base
		bad.Dangling = d
		if err := bad.Validate(); err == nil {
			t.Fatalf("dangling policy %d accepted", d)
		}
	}
	restart := base
	restart.Dangling = DanglingRestart
	if err := restart.Validate(); err != nil {
		t.Fatalf("DanglingRestart rejected by Validate: %v", err)
	}
	if err := restart.ValidatePrecompute(); !errors.Is(err, ErrUnsupportedDangling) {
		t.Fatalf("ValidatePrecompute(DanglingRestart) = %v, want ErrUnsupportedDangling", err)
	}
}

// MaxIter as a push cap: a cap of 1 (scaled by n) that stops a kernel
// with residual above Eps still queued is an error, not a truncated
// vector. Eps 1e-12 on a cyclic graph cannot converge in n pops.
func TestPushRespectsMaxIterCap(t *testing.T) {
	g := graph.FromAdjacency([][]int32{{1, 2}, {2, 0}, {0, 1}})
	p := Params{Alpha: 0.15, Eps: 1e-12, MaxIter: 1}
	var sc Scratch
	if _, err := sc.PartialEntries(g, 0, nil, p); !errors.Is(err, ErrPushCap) {
		t.Fatalf("partial: err = %v, want ErrPushCap", err)
	}
	if _, err := sc.SkeletonEntries(g, 0, p); !errors.Is(err, ErrPushCap) {
		t.Fatalf("skeleton: err = %v, want ErrPushCap", err)
	}
	if _, _, err := PartialVector(g, 0, nil, p); !errors.Is(err, ErrPushCap) {
		t.Fatalf("PartialVector: err = %v, want ErrPushCap", err)
	}
	if sc.Stats.Vectors != 0 {
		t.Fatalf("failed kernels tallied %d vectors", sc.Stats.Vectors)
	}
	// The same scratch still serves a converging vector afterwards.
	p.Eps = 1e-4
	p.MaxIter = 0
	ents, err := sc.PartialEntries(g, 0, nil, p)
	if err != nil || len(ents) != 3 {
		t.Fatalf("after a capped run: %d entries, err %v", len(ents), err)
	}
}

package ppr

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"exactppr/internal/graph"
	"exactppr/internal/sparse"
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

// One Scratch reused across a random run of kernels gives bit-identical
// results to a fresh one per vector. The run varies the graph size (so
// the buffers grow mid-run), the source, the hub mask, the tolerance and
// the kernel, and includes capped runs that fail midway. A few vectors
// after each grow it pushes the epoch to the edge of its wrap: the slots
// those early vectors stamped must not look fresh to the vectors that
// reuse their epochs after the wrap. The epoch stamp is the only thing
// that keeps a slot written by an earlier vector from being read.
func TestScratchReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	grows, wraps, capped := 0, 0, 0
	for block := 0; block < 15; block++ {
		var sc Scratch
		sinceGrow := 0
		for trial := 0; trial < 40; trial++ {
			n := 2 + rng.Intn(30)
			if rng.Intn(8) == 0 {
				n = 2 + rng.Intn(300)
			}
			b := graph.NewBuilder(n)
			for e := 0; e < rng.Intn(4*n); e++ {
				b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
			}
			g := b.Build()
			src := int32(rng.Intn(n))
			var isHub []bool
			if rng.Intn(2) == 0 {
				isHub = randomHubs(rng, n)
			}
			p := Params{Alpha: 0.15, Eps: []float64{1e-2, 1e-4, 1e-7, 1e-10}[rng.Intn(4)]}
			if rng.Intn(10) == 0 {
				p.Eps, p.MaxIter = 1e-12, 1
			}
			if sinceGrow == 3 {
				sc.epoch = math.MaxUint32 - uint32(rng.Intn(3))
			}
			before, capBefore := sc.epoch, cap(sc.f1)

			var got, want pushState
			var gotErr, wantErr error
			partial := rng.Intn(2) == 0
			if partial {
				got, gotErr = pushPartial(g, src, isHub, p, &sc)
				want, wantErr = pushPartial(g, src, isHub, p, nil)
			} else {
				got, gotErr = pushSkeleton(g, src, p, &sc)
				want, wantErr = pushSkeleton(g, src, p, nil)
			}
			sinceGrow++
			if cap(sc.f1) > capBefore {
				grows++
				sinceGrow = 0
			} else if sc.epoch < before {
				wraps++
			}
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("block %d trial %d: reused scratch err %v, fresh err %v", block, trial, gotErr, wantErr)
			}
			if gotErr != nil {
				if !errors.Is(gotErr, ErrPushCap) {
					t.Fatalf("block %d trial %d: %v", block, trial, gotErr)
				}
				capped++
				continue
			}
			if got.pushes != want.pushes {
				t.Fatalf("block %d trial %d: %d pushes on the reused scratch, %d on a fresh one", block, trial, got.pushes, want.pushes)
			}
			sameBits(t, "estimate", got.drainPacked().Entries(), want.drainPacked().Entries())
			if partial {
				sameBits(t, "blocked", sparse.Pack(got.drainVector(got.aux)).Entries(), sparse.Pack(want.drainVector(want.aux)).Entries())
			}
		}
	}
	if grows < 15 || wraps < 15 || capped == 0 {
		t.Fatalf("run grew the scratch %d times, wrapped the epoch %d times, capped %d kernels: want ≥ 15, ≥ 15, ≥ 1", grows, wraps, capped)
	}
}

func sameBits(t *testing.T, tag string, got, want []sparse.Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s has %d entries on the reused scratch, %d on a fresh one", tag, len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s entry %d = %v on the reused scratch, %v on a fresh one", tag, i, got[i], want[i])
		}
	}
}

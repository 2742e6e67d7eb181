package ppr

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"exactppr/internal/graph"
	"exactppr/internal/sparse"
)

// The dense-bookkeeping kernels the push engine replaced, and the tests
// that hold the engine to them. The oracles run the same residual queue
// in the same FIFO order over cleared O(|V|) arrays. They ignore
// Params.Dangling: walks always absorb.

// The kernel contract: the push kernels agree with the dense oracles
// within 1e-9 on every entry. (The implementation is stronger — the
// arithmetic and pop order are shared, so outputs are bit-identical —
// but 1e-9 is what callers may rely on.)
const kernelTol = 1e-9

func packedMatchesDense(t *testing.T, tag string, got sparse.Packed, want []float64) {
	t.Helper()
	nonzero := 0
	for id, x := range want {
		if x != 0 {
			nonzero++
		}
		if math.Abs(got.Get(int32(id))-x) > kernelTol {
			t.Fatalf("%s: entry %d = %v, want %v", tag, id, got.Get(int32(id)), x)
		}
	}
	if got.Len() != nonzero {
		t.Fatalf("%s: %d entries, want %d", tag, got.Len(), nonzero)
	}
}

// Property: PartialVector agrees with the dense oracle for arbitrary
// graphs, hub sets, and sources — including the hub-blocked mass
// diagnostic, the nil-hub-set full PPV, and the pop count.
func TestPushPartialMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		g := randomGraph(rng)
		n := g.NumNodes()
		isHub := randomHubs(rng, n)
		u := int32(rng.Intn(n))
		p := Params{Alpha: 0.15, Eps: 1e-6}
		want, wantBlocked, steps, err := partialVectorDense(g, u, isHub, p)
		if err != nil {
			t.Fatal(err)
		}
		got, gotBlocked, err := PartialVector(g, u, isHub, p)
		if err != nil {
			t.Fatal(err)
		}
		packedMatchesDense(t, "partial", got, want)
		packedMatchesDense(t, "blocked", sparse.Pack(gotBlocked), wantBlocked)
		st, err := pushPartial(g, u, isHub, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.pushes != steps {
			t.Fatalf("trial %d: %d pushes, dense oracle popped %d", trial, st.pushes, steps)
		}
		full, _, err := PartialVector(g, u, nil, p)
		if err != nil {
			t.Fatal(err)
		}
		wantFull, _, _, err := partialVectorDense(g, u, nil, p)
		if err != nil {
			t.Fatal(err)
		}
		packedMatchesDense(t, "full PPV", full, wantFull)
	}
}

// Property: SkeletonVector agrees with the dense reverse oracle.
func TestPushSkeletonMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 60; trial++ {
		g := randomGraph(rng)
		h := int32(rng.Intn(g.NumNodes()))
		p := Params{Alpha: 0.15, Eps: 1e-6}
		want, _, err := skeletonForHub(g, h, p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := SkeletonVector(g, h, p)
		if err != nil {
			t.Fatal(err)
		}
		packedMatchesDense(t, "skeleton", got, want)
	}
}

// The kernels must agree with the oracle on virtual-sink subgraphs (the
// shape every pre-computation task runs on), and refuse DanglingRestart
// params, whose restart arcs they cannot honour.
func TestPushKernelsOnVirtualSubgraph(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 40; trial++ {
		root := randomGraph(rng)
		n := root.NumNodes()
		var members []int32
		for v := int32(0); v < int32(n); v++ {
			if rng.Float64() < 0.5 {
				members = append(members, v)
			}
		}
		if len(members) == 0 {
			members = append(members, 0)
		}
		sub := graph.VirtualSubgraph(root, members)
		g := sub.G
		u := int32(rng.Intn(sub.Len()))
		isHub := randomHubs(rng, g.NumNodes())
		isHub[u] = rng.Float64() < 0.5

		p := Params{Alpha: 0.2, Eps: 1e-7}
		want, _, _, err := partialVectorDense(g, u, isHub, p)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := PartialVector(g, u, isHub, p)
		if err != nil {
			t.Fatal(err)
		}
		packedMatchesDense(t, "virtual partial", got, want)
		wantSkel, _, err := skeletonForHub(g, u, p)
		if err != nil {
			t.Fatal(err)
		}
		gotSkel, err := SkeletonVector(g, u, p)
		if err != nil {
			t.Fatal(err)
		}
		packedMatchesDense(t, "virtual skeleton", gotSkel, wantSkel)

		p.Dangling = DanglingRestart
		if _, _, err := PartialVector(g, u, isHub, p); !errors.Is(err, ErrUnsupportedDangling) {
			t.Fatalf("partial under DanglingRestart: err = %v, want ErrUnsupportedDangling", err)
		}
		if _, err := SkeletonVector(g, u, p); !errors.Is(err, ErrUnsupportedDangling) {
			t.Fatalf("skeleton under DanglingRestart: err = %v, want ErrUnsupportedDangling", err)
		}
	}
}

// The kernels must match the oracles whatever share of the subgraph the
// frontier reaches. Tiny Eps on a connected graph drives the frontier
// past a quarter of the nodes; small reachable sets stay small.
func TestKernelLargeFrontierEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	large, small := 0, 0
	for trial := 0; trial < 40; trial++ {
		g := randomGraph(rng)
		u := int32(rng.Intn(g.NumNodes()))
		p := Params{Alpha: 0.15, Eps: 1e-10}
		st, err := pushPartial(g, u, nil, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(st.touched) > g.NumNodes()/4 {
			large++
		} else {
			small++
		}
		want, _, _, err := partialVectorDense(g, u, nil, p)
		if err != nil {
			t.Fatal(err)
		}
		packedMatchesDense(t, "partial", st.drainPacked(), want)
		sk, err := pushSkeleton(g, u, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantSkel, _, err := skeletonForHub(g, u, p)
		if err != nil {
			t.Fatal(err)
		}
		packedMatchesDense(t, "skeleton", sk.drainPacked(), wantSkel)
	}
	if large == 0 || small == 0 {
		t.Fatalf("%d large and %d small frontiers: the test must exercise both kinds", large, small)
	}
}

// FuzzPushTermination drives the push kernels with fuzzed graph seeds
// and tolerances: termination must respect ε and the result must match
// the dense oracle, unless both exhaust the push cap, which the kernel
// must then report as ErrPushCap.
func FuzzPushTermination(f *testing.F) {
	f.Add(int64(1), 1e-4)
	f.Add(int64(7), 0.9)
	f.Add(int64(42), 1e-9)
	f.Fuzz(func(t *testing.T, seed int64, eps float64) {
		if !(eps > 0) || eps > 1 || math.IsNaN(eps) {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng)
		n := g.NumNodes()
		u := int32(rng.Intn(n))
		isHub := randomHubs(rng, n)
		p := Params{Alpha: 0.15, Eps: eps}
		want, _, steps, err := partialVectorDense(g, u, isHub, p)
		if err != nil {
			t.Fatal(err)
		}
		st, err := pushPartial(g, u, isHub, p, nil)
		if errors.Is(err, ErrPushCap) {
			if limit := p.maxIter() * n; steps < limit {
				t.Fatalf("push cap hit, but the oracle converged in %d of %d pops", steps, limit)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		checkResiduals(t, "partial", &st, eps)
		packedMatchesDense(t, "partial", st.drainPacked(), want)
	})
}

// partialVectorDense is the dense selective-expansion kernel behind
// PartialVector, returning the dense lower approximation, the
// hub-blocked mass, and the number of residual pops.
func partialVectorDense(g *graph.Graph, u int32, isHub []bool, p Params) (dense, blockedMass []float64, steps int, err error) {
	if err := p.Validate(); err != nil {
		return nil, nil, 0, err
	}
	n := g.NumNodes()
	if u < 0 || int(u) >= n || g.IsVirtual(u) {
		return nil, nil, 0, fmt.Errorf("ppr: source %d invalid", u)
	}
	if isHub != nil && len(isHub) != n {
		return nil, nil, 0, fmt.Errorf("ppr: isHub length %d, want %d", len(isHub), n)
	}
	hub := func(v int32) bool { return isHub != nil && isHub[v] }

	d := make([]float64, n)       // D_k approximation
	e := make([]float64, n)       // E_k residual
	blocked := make([]float64, n) // hub-frozen mass
	var queue []int32
	inQueue := make([]bool, n)
	push := func(v int32) {
		if !inQueue[v] && e[v] > p.Eps {
			inQueue[v] = true
			queue = append(queue, v)
		}
	}
	expand := func(v int32, mass float64) {
		ow := g.OutWeight(v)
		if ow == 0 {
			return // dangling or fully-external: absorb
		}
		share := mass * (1 - p.Alpha) / float64(ow)
		for _, w := range g.Out(v) {
			if g.IsVirtual(w) {
				continue
			}
			e[w] += share
			push(w)
		}
	}

	// Step 0: the zero-length tour ends at u (α), and u expands even when
	// it is a hub — the start position is not interior.
	d[u] = p.Alpha
	expand(u, 1)

	limit := p.maxIter() * max(n, 1)
	for len(queue) > 0 && steps < limit {
		steps++
		v := queue[0]
		queue = queue[1:]
		inQueue[v] = false
		mass := e[v]
		if mass <= p.Eps {
			continue
		}
		e[v] = 0
		if hub(v) {
			blocked[v] += mass // frozen: no hub visits after the start
			continue
		}
		d[v] += p.Alpha * mass // tours ending here
		expand(v, mass)
	}
	return d, blocked, steps, nil
}

// skeletonForHub is the dense reverse kernel behind SkeletonVector:
// entry u of the result is s_u(h).
func skeletonForHub(g *graph.Graph, h int32, p Params) (dense []float64, steps int, err error) {
	if err := p.Validate(); err != nil {
		return nil, 0, err
	}
	n := g.NumNodes()
	if h < 0 || int(h) >= n || g.IsVirtual(h) {
		return nil, 0, fmt.Errorf("ppr: hub %d invalid", h)
	}
	g.BuildReverse()
	est := make([]float64, n)
	res := make([]float64, n)
	res[h] = p.Alpha
	queue := []int32{h}
	inQueue := make([]bool, n)
	inQueue[h] = true
	limit := p.maxIter() * max(n, 1)
	for len(queue) > 0 && steps < limit {
		steps++
		u := queue[0]
		queue = queue[1:]
		inQueue[u] = false
		rho := res[u]
		if rho <= p.Eps {
			continue
		}
		res[u] = 0
		est[u] += rho
		// F(w) receives (1−α)·F(u)/OutWeight(w) for every edge w→u.
		for _, w := range g.In(u) {
			ow := g.OutWeight(w)
			if ow == 0 || g.IsVirtual(w) {
				continue
			}
			res[w] += (1 - p.Alpha) * rho / float64(ow)
			if !inQueue[w] && res[w] > p.Eps {
				inQueue[w] = true
				queue = append(queue, w)
			}
		}
	}
	if g.HasVirtualSink() {
		est[g.VirtualSink()] = 0
	}
	return est, steps, nil
}

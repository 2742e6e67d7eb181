// Package ppr implements the random-walk primitives of the paper: power
// iteration (Algorithm 2), selective expansion for partial vectors
// (Appendix E.1, Eq. 9), and the memory-bounded reverse iteration for hubs
// skeleton vectors (§5.2, Eq. 8).
//
// All functions operate in the LOCAL id space of the graph they are given;
// callers working with (virtual) subgraphs map global ↔ local ids
// themselves. Virtual sink nodes are never expanded and never accumulate
// score: walk mass that would enter the sink is absorbed, implementing the
// paper's Definition 3 semantics (see internal/graph).
//
// Dangling nodes (OutWeight 0) absorb by default, which is the semantics
// of the Jeh–Widom inverse P-distance (Eq. 2: a tour cannot continue from
// a node with no out-edges). DanglingRestart reproduces the engineering
// choice of the paper's Algorithm 2, which adds an implicit arc from every
// dangling node back to the query node.
//
// The pre-computation kernels — PartialVector (partial vectors and leaf
// PPVs) and SkeletonVector (skeleton vectors), plus the Scratch methods
// the worker pools call — are one engine: sparse-frontier push
// (push.go) with work-proportional bookkeeping, epoch-stamped lazy slot
// initialization and touched-list drains, so a vector that reaches t
// nodes costs O(t log t) instead of O(|V|). Each kernel has one
// residual loop, whatever the frontier size. The kernels maintain the
// Gauss–Southwell residual invariant
// exact = estimate + Σ residual·kernel and terminate when every
// residual is at most Eps (each entry then within Eps/α of the fixed
// point). They support only DanglingAbsorb: a restart arc points at the
// query node, which a vector pre-computed for another source cannot
// know. PowerIteration and PowerIterationSet (both dangling policies)
// and SkeletonForHubDense (absorb) are the dense oracles.
package ppr

import (
	"errors"
	"fmt"
	"math"

	"exactppr/internal/graph"
	"exactppr/internal/sparse"
)

// DanglingPolicy selects what happens to walk mass at out-degree-0 nodes.
type DanglingPolicy int

const (
	// DanglingAbsorb terminates walks at dangling nodes (inverse
	// P-distance semantics; the default).
	DanglingAbsorb DanglingPolicy = iota
	// DanglingRestart redirects dangling mass to the query node, as in
	// the paper's Algorithm 2 (lines 14–16).
	DanglingRestart
)

// Params bundles the common PPR knobs.
type Params struct {
	// Alpha is the teleport probability (paper default 0.15).
	Alpha float64
	// Eps is the per-entry convergence tolerance (paper default 1e-4).
	Eps float64
	// MaxIter caps work as a safety net; 0 means a generous default and
	// negative values are rejected by Validate. For PowerIteration it
	// bounds sweep iterations; for the push kernels it is a push-count
	// cap scaled by the node count: at most MaxIter·NumNodes residual
	// pops per vector, and a kernel that hits it fails with ErrPushCap.
	MaxIter int
	// Dangling selects the dangling-node policy. The pre-computation
	// kernels accept only DanglingAbsorb (see ValidatePrecompute).
	Dangling DanglingPolicy
}

// ErrUnsupportedDangling reports that pre-computation was asked for a
// dangling policy other than DanglingAbsorb. The kernels never restart a walk,
// so they fail rather than return vectors for the wrong policy.
var ErrUnsupportedDangling = errors.New("ppr: pre-computation supports only DanglingAbsorb")

// Defaults returns the paper's default parameters: α = 0.15, ε = 1e-4.
func Defaults() Params { return Params{Alpha: 0.15, Eps: 1e-4} }

func (p Params) maxIter() int {
	if p.MaxIter > 0 {
		return p.MaxIter
	}
	return 10000
}

// minAlpha is the smallest teleport probability Validate accepts. The
// query fold scales hub partials by S_u(h)/α, so an α near zero (a
// corrupt store header, say) would overflow answers to ±Inf. No walk
// model restarts less than once in a million steps, and
// PowerIteration's default sweep cap could not converge there anyway.
const minAlpha = 1e-6

// Validate reports the first invalid parameter.
func (p Params) Validate() error {
	if !(p.Alpha >= minAlpha && p.Alpha < 1) {
		return fmt.Errorf("ppr: alpha = %v, want [%v,1)", p.Alpha, minAlpha)
	}
	if !(p.Eps > 0) {
		return fmt.Errorf("ppr: eps = %v, want > 0", p.Eps)
	}
	if p.MaxIter < 0 {
		return fmt.Errorf("ppr: maxIter = %d, want >= 0 (0 means the default cap)", p.MaxIter)
	}
	if p.Dangling != DanglingAbsorb && p.Dangling != DanglingRestart {
		return fmt.Errorf("ppr: unknown dangling policy %d", int(p.Dangling))
	}
	return nil
}

// ValidatePrecompute is Validate plus the pre-computation kernels' own
// rule: dangling nodes absorb (ErrUnsupportedDangling otherwise).
func (p Params) ValidatePrecompute() error {
	if err := p.Validate(); err != nil {
		return err
	}
	if p.Dangling != DanglingAbsorb {
		return fmt.Errorf("%w (dangling policy %d)", ErrUnsupportedDangling, int(p.Dangling))
	}
	return nil
}

// PowerIteration computes the PPV of the single query node q on g by the
// fixed-point iteration r ← (1−α)·AᵀR + α·x_q, stopping when every entry
// changes by at most Eps (Algorithm 2's criterion). Entries at or below
// Eps·Alpha are dropped from the returned sparse vector only if they are
// exactly zero; callers needing truncation apply it themselves.
func PowerIteration(g *graph.Graph, q int32, p Params) (sparse.Vector, error) {
	return PowerIterationSet(g, []int32{q}, p)
}

// PowerIterationSet computes the PPV for a preference node SET (uniform
// preference over the given nodes), supporting the paper's general P.
func PowerIterationSet(g *graph.Graph, pref []int32, p Params) (sparse.Vector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(pref) == 0 {
		return nil, fmt.Errorf("ppr: empty preference set")
	}
	n := g.NumNodes()
	for _, q := range pref {
		if q < 0 || int(q) >= n {
			return nil, fmt.Errorf("ppr: preference node %d out of range [0,%d)", q, n)
		}
		if g.IsVirtual(q) {
			return nil, fmt.Errorf("ppr: preference node %d is the virtual sink", q)
		}
	}
	x := make([]float64, n)
	w := 1 / float64(len(pref))
	for _, q := range pref {
		x[q] += w
	}
	cur := make([]float64, n)
	copy(cur, x)
	for i := range cur {
		cur[i] *= p.Alpha
	}
	next := make([]float64, n)
	restart := p.Dangling == DanglingRestart

	for iter := 0; iter < p.maxIter(); iter++ {
		for i := range next {
			next[i] = p.Alpha * x[i]
		}
		for u := int32(0); u < int32(n); u++ {
			mass := cur[u]
			if mass == 0 || g.IsVirtual(u) {
				continue
			}
			ow := g.OutWeight(u)
			if ow == 0 {
				if restart {
					for _, q := range pref {
						next[q] += mass * (1 - p.Alpha) * w
					}
				}
				continue // absorb
			}
			share := mass * (1 - p.Alpha) / float64(ow)
			for _, v := range g.Out(u) {
				if g.IsVirtual(v) {
					continue // sink absorbs its share
				}
				next[v] += share
			}
		}
		converged := true
		for i := range next {
			if math.Abs(next[i]-cur[i]) > p.Eps {
				converged = false
				break
			}
		}
		cur, next = next, cur
		if converged {
			break
		}
	}
	if g.HasVirtualSink() {
		cur[g.VirtualSink()] = 0
	}
	return sparse.FromDense(cur, 0), nil
}

// SkeletonForHubDense is the literal Jacobi iteration of Eq. 8/Theorem 6,
// kept as a cross-validation oracle for SkeletonVector and as the ablation
// target for the "improved skeleton computation" claim of §5.2.
func SkeletonForHubDense(g *graph.Graph, h int32, p Params) ([]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	if h < 0 || int(h) >= n || g.IsVirtual(h) {
		return nil, fmt.Errorf("ppr: hub %d invalid", h)
	}
	cur := make([]float64, n)
	next := make([]float64, n)
	for iter := 0; iter < p.maxIter(); iter++ {
		for u := int32(0); u < int32(n); u++ {
			var acc float64
			if ow := g.OutWeight(u); ow != 0 && !g.IsVirtual(u) {
				var sum float64
				for _, v := range g.Out(u) {
					if !g.IsVirtual(v) {
						sum += cur[v]
					}
				}
				acc = (1 - p.Alpha) * sum / float64(ow)
			}
			if u == h {
				acc += p.Alpha
			}
			next[u] = acc
		}
		converged := true
		for i := range next {
			if math.Abs(next[i]-cur[i]) > p.Eps*p.Alpha {
				converged = false
				break
			}
		}
		cur, next = next, cur
		if converged {
			break
		}
	}
	if g.HasVirtualSink() {
		cur[g.VirtualSink()] = 0
	}
	return cur, nil
}

package ppr

import (
	"errors"
	"fmt"

	"exactppr/internal/graph"
	"exactppr/internal/sparse"
)

// Sparse-frontier push kernels: the one pre-computation engine.
//
// Both kernels move probability mass with a FIFO residual work queue,
// and keep their bookkeeping proportional to the work rather than to
// the subgraph. A hub partial or leaf PPV usually touches a small
// neighbourhood of its subgraph, and the update path re-runs thousands
// of such vectors per edge batch, so O(|V|) clears and drains per
// vector would dominate:
//
//   - scratch slots are initialized lazily, on first touch, guarded by
//     an epoch stamp (no up-front clears; a stale slot from a previous
//     vector is never read);
//   - touched slot ids are collected in a list, and the result drains
//     by sorting that list (O(t log t) in the touched count t) instead
//     of scanning O(|V|);
//   - the reverse kernel reads the in-CSR arrays once (graph.InLists),
//     and both directions run as straight-line loops over the raw CSR.
//
// # Residual invariant
//
// Both directions maintain the Gauss–Southwell invariant
//
//	exact(v) = d(v) + Σ_w e(w) · k_w(v)    for every v,
//
// where d is the current estimate, e the per-node residual, and k_w the
// exact kernel answer started from w (the hub-blocked partial vector in
// the forward case, the reverse value function in the skeleton case).
// Every push moves one node's residual into its estimate and scatters
// the (1−α) continuation onto its neighbors, preserving the invariant;
// the loop stops when every residual is at most Eps, so each entry is
// within Eps/α of the fixed point. A kernel stopped by its
// MaxIter·|V| push cap with residual above Eps still queued fails with
// ErrPushCap instead of returning the truncated vector.
//
// Each kernel runs one residual loop for every frontier size. A vector
// that reaches most of its subgraph still pays a stamp check per edge
// and a sort of its touched list; a dense-sweep fallback for such
// vectors measured no faster on the web fixtures, so there is none.

// ErrPushCap reports a kernel stopped by its MaxIter·|V| push cap while
// residual above Eps was still queued: the vector it had built was
// short of the Eps guarantee.
var ErrPushCap = errors.New("ppr: push cap reached before convergence")

// KernelStats counts the work of kernel invocations accumulated on one
// Scratch (one pre-computation worker).
type KernelStats struct {
	// Vectors is the number of kernel invocations.
	Vectors int64
	// Pushes is the number of residual pops (the work-proportional
	// cost unit).
	Pushes int64
}

// Add accumulates b into s.
func (s *KernelStats) Add(b KernelStats) {
	s.Vectors += b.Vectors
	s.Pushes += b.Pushes
}

// pushState is the post-run state of a push kernel, aliasing the
// scratch's buffers (valid until the scratch's next use). est/res are
// the estimate/residual arrays (d/e in the forward kernel's terms);
// aux is the forward kernel's hub-blocked mass, nil for the reverse
// kernel. Only the slots listed in touched are meaningful.
type pushState struct {
	est, res []float64
	aux      []float64
	touched  []int32
	pushes   int
}

// drainPacked emits the estimate array as a canonical Packed.
func (st *pushState) drainPacked() sparse.Packed {
	return sparse.PackFromDenseIDs(st.touched, st.est)
}

// appendEntries appends the nonzero estimate entries to dst, in
// unspecified order.
func (st *pushState) appendEntries(dst []sparse.Entry) []sparse.Entry {
	for _, id := range st.touched {
		if x := st.est[id]; x != 0 {
			dst = append(dst, sparse.Entry{ID: id, Score: x})
		}
	}
	return dst
}

// drainVector emits a dense slice's nonzero entries as a map Vector.
func (st *pushState) drainVector(vals []float64) sparse.Vector {
	v := sparse.Vector{}
	for _, id := range st.touched {
		if x := vals[id]; x != 0 {
			v[id] = x
		}
	}
	return v
}

// pushPartial is the forward selective-expansion kernel (Eq. 9,
// Definition 1) with lazily stamped slots and a touched-list drain. The
// hot loop is written closure-free over the raw CSR — at a few hundred
// pushes per vector the per-edge constant is what decides whether
// sparse bookkeeping wins. See the file comment for the invariant.
func pushPartial(g *graph.Graph, u int32, isHub []bool, p Params, sc *Scratch) (pushState, error) {
	if err := p.ValidatePrecompute(); err != nil {
		return pushState{}, err
	}
	n := g.NumNodes()
	if u < 0 || int(u) >= n || g.IsVirtual(u) {
		return pushState{}, fmt.Errorf("ppr: source %d invalid", u)
	}
	if isHub != nil && len(isHub) != n {
		return pushState{}, fmt.Errorf("ppr: isHub length %d, want %d", len(isHub), n)
	}
	if sc == nil {
		sc = &Scratch{}
	}
	d, e, blocked, inQueue, stamp, epoch := sc.stamped(n)
	touched := sc.ids()
	queue := sc.queueBuf()
	sink := g.VirtualSink() // -1 when absent: never equals a node id
	oneMinus := 1 - p.Alpha
	eps := p.Eps
	pushes := 0
	limit := p.maxIter() * max(n, 1)

	// Step 0: the zero-length tour ends at u (α), and u expands even when
	// it is a hub — the start position is not interior.
	stamp[u] = epoch
	e[u], blocked[u] = 0, 0
	inQueue[u] = false
	touched = append(touched, u)
	d[u] = p.Alpha
	if ow := g.OutWeight(u); ow != 0 {
		share := oneMinus / float64(ow) // = 1·(1−α)/ow, as expand(u, 1) computes
		for _, w := range g.Out(u) {
			if w == sink {
				continue
			}
			if stamp[w] != epoch {
				stamp[w] = epoch
				d[w], e[w], blocked[w] = 0, 0, 0
				inQueue[w] = false
				touched = append(touched, w)
			}
			e[w] += share
			if !inQueue[w] && e[w] > eps {
				inQueue[w] = true
				queue = append(queue, w)
			}
		}
	}

	qi := 0
	for qi < len(queue) && pushes < limit {
		pushes++
		v := queue[qi]
		qi++
		inQueue[v] = false
		mass := e[v]
		if mass <= eps {
			continue
		}
		e[v] = 0
		if isHub != nil && isHub[v] {
			blocked[v] += mass // frozen: no hub visits after the start
			continue
		}
		d[v] += p.Alpha * mass // tours ending here
		ow := g.OutWeight(v)
		if ow == 0 {
			continue // dangling or fully-external: absorb
		}
		share := mass * oneMinus / float64(ow)
		for _, w := range g.Out(v) {
			if w == sink {
				continue
			}
			if stamp[w] != epoch {
				stamp[w] = epoch
				d[w], e[w], blocked[w] = 0, 0, 0
				inQueue[w] = false
				touched = append(touched, w)
			}
			e[w] += share
			if !inQueue[w] && e[w] > eps {
				inQueue[w] = true
				queue = append(queue, w)
			}
		}
	}
	sc.putQueue(queue)
	sc.touched = touched[:0] // keep the (possibly grown) buffer
	if qi < len(queue) {
		return pushState{}, pushCapError("partial", u, len(queue)-qi, limit)
	}
	return pushState{
		est: d, res: e, aux: blocked, touched: touched, pushes: pushes,
	}, nil
}

// pushSkeleton is the residual-driven reverse value iteration (Eq. 8),
// reading the reverse CSR once so the inner loop never takes the In()
// mutex.
func pushSkeleton(g *graph.Graph, h int32, p Params, sc *Scratch) (pushState, error) {
	if err := p.ValidatePrecompute(); err != nil {
		return pushState{}, err
	}
	n := g.NumNodes()
	if h < 0 || int(h) >= n || g.IsVirtual(h) {
		return pushState{}, fmt.Errorf("ppr: hub %d invalid", h)
	}
	if sc == nil {
		sc = &Scratch{}
	}
	inOff, inAdj := g.InLists()
	est, res, _, inQueue, stamp, epoch := sc.stamped(n)
	touched := sc.ids()
	queue := sc.queueBuf()
	sink := g.VirtualSink()
	oneMinus := 1 - p.Alpha
	eps := p.Eps
	pushes := 0
	limit := p.maxIter() * max(n, 1)

	stamp[h] = epoch
	est[h] = 0
	touched = append(touched, h)
	res[h] = p.Alpha
	queue = append(queue, h)
	inQueue[h] = true

	qi := 0
	for qi < len(queue) && pushes < limit {
		pushes++
		u := queue[qi]
		qi++
		inQueue[u] = false
		rho := res[u]
		if rho <= eps {
			continue
		}
		res[u] = 0
		est[u] += rho
		// F(w) receives (1−α)·F(u)/OutWeight(w) for every edge w→u.
		for _, w := range inAdj[inOff[u]:inOff[u+1]] {
			ow := g.OutWeight(w)
			if ow == 0 || w == sink {
				continue
			}
			if stamp[w] != epoch {
				stamp[w] = epoch
				est[w], res[w] = 0, 0
				inQueue[w] = false
				touched = append(touched, w)
			}
			res[w] += oneMinus * rho / float64(ow)
			if !inQueue[w] && res[w] > eps {
				inQueue[w] = true
				queue = append(queue, w)
			}
		}
	}
	sc.putQueue(queue)
	sc.touched = touched[:0]
	if qi < len(queue) {
		return pushState{}, pushCapError("skeleton", h, len(queue)-qi, limit)
	}
	return pushState{
		est: est, res: res, touched: touched, pushes: pushes,
	}, nil
}

// pushCapError is ErrPushCap for a kernel that stopped at its push cap
// with queued nodes left. Every queued node holds residual above Eps:
// a node is queued only once its residual exceeds Eps, and residual
// only grows until the node is popped.
func pushCapError(kind string, src int32, queued, limit int) error {
	return fmt.Errorf("%w: %s from %d stopped after %d pushes with %d nodes still queued", ErrPushCap, kind, src, limit, queued)
}

// PartialVector computes the partial vector p_u^H of node u by selective
// expansion (Eq. 9, Definition 1): the weights of tours u⇝v that visit no
// hub node at any position AFTER the start. The start position is exempt,
// so a hub node's own partial vector exists (it expands exactly once, at
// step 0) — but a later return to it, like any other hub visit, freezes
// the walk. The frozen mass is returned per hub in hubBlocked (the
// FastPPV scheduler's work items). Consequences:
//
//   - p(v) = 0 for every hub v ≠ u; p(u) = α exactly when u ∈ H (only
//     the zero-length tour survives).
//   - P_h := p_h − α·x_h has NO entries on hub nodes at all, so in the
//     construction (Eq. 4) every hub-target entry of the PPV comes
//     directly from the skeleton: r_u(h) = s_u(h). This is the
//     "last hub visit" renewal decomposition: r_u(v) = p_u(v) +
//     (1/α)·Σ_h (r_u(h) − α·f_u(h))·p_h(v) for v ∉ H, verified exactly in
//     TestDecompositionIdentity for hub and non-hub query nodes alike.
//
// isHub[v] marks hub nodes in local id space; it may be nil for an empty
// hub set, in which case the result is the full local PPV of u — exactly
// the "leaf level" vectors HGPA stores (§4.4).
func PartialVector(g *graph.Graph, u int32, isHub []bool, p Params) (partial sparse.Packed, hubBlocked sparse.Vector, err error) {
	return new(Scratch).PartialVector(g, u, isHub, p)
}

// SkeletonVector computes s_·(h) — the PPV value AT hub h for every
// source node simultaneously — solving the paper's reverse value
// iteration (Eq. 8)
//
//	F(u) = (1−α)·Σ_{v∈Out(u)} F(v)/OutWeight(u) + α·x_h(u)
//
// by memory-bounded reverse push instead of the dense Jacobi sweeps of
// Theorem 6 (SkeletonForHubDense): when all residuals fall below Eps,
// each entry is within Eps/α of the fixed point, the same class of
// guarantee as the paper's termination rule, while touching only the
// nodes h's influence actually reaches. Entry u of the packed result is
// s_u(h), the local PPV value r_u(h); sources h never reaches are absent.
func SkeletonVector(g *graph.Graph, h int32, p Params) (sparse.Packed, error) {
	st, err := pushSkeleton(g, h, p, nil)
	if err != nil {
		return sparse.Packed{}, err
	}
	return st.drainPacked(), nil
}

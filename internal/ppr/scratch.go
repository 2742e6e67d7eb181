package ppr

import (
	"exactppr/internal/graph"
	"exactppr/internal/sparse"
)

// Scratch holds the working arrays of the ppr kernels so a worker
// executing many tasks back to back — each worker of Run, which every
// pre-computation and update recompute goes through — reuses one set
// of buffers instead of allocating fresh O(|V|) slices per vector. The
// kernels stamp slots lazily (see push.go), so a task's cost stays
// proportional to the frontier it actually reaches. The zero value is ready to use; a
// Scratch must not be shared between concurrent calls.
type Scratch struct {
	f1, f2, f3 []float64
	marks      []bool
	queue      []int32
	touched    []int32
	stamp      []uint32
	epoch      uint32
	entries    []sparse.Entry

	// Stats accumulates kernel work counters across every call on this
	// scratch — one pre-computation worker's tally.
	Stats KernelStats
}

// grow ensures every buffer holds n slots. Growing invalidates stamps
// (fresh arrays are all-zero and epoch restarts).
func (sc *Scratch) grow(n int) {
	if cap(sc.f1) >= n {
		return
	}
	sc.f1 = make([]float64, n)
	sc.f2 = make([]float64, n)
	sc.f3 = make([]float64, n)
	sc.marks = make([]bool, n)
	sc.stamp = make([]uint32, n)
	sc.epoch = 0
}

// stamped returns the float buffers, the mark buffer, and the stamp
// array under a fresh epoch: nothing is cleared, slots are lazily
// initialized on first touch of the new epoch.
func (sc *Scratch) stamped(n int) (a, b, c []float64, marks []bool, stamp []uint32, epoch uint32) {
	sc.grow(n)
	sc.epoch++
	if sc.epoch == 0 { // stamp wrap: all stamps look fresh, clear them
		clear(sc.stamp)
		sc.epoch = 1
	}
	return sc.f1[:n], sc.f2[:n], sc.f3[:n], sc.marks[:n], sc.stamp[:n], sc.epoch
}

// queueBuf returns the reusable work-queue buffer, emptied. Kernels
// hand it back via putQueue so growth is kept across tasks.
func (sc *Scratch) queueBuf() []int32 {
	if sc.queue == nil {
		sc.queue = make([]int32, 0, 64)
	}
	return sc.queue[:0]
}

// putQueue returns a (possibly grown) queue buffer for reuse.
func (sc *Scratch) putQueue(q []int32) { sc.queue = q[:0] }

// ids returns the reusable touched-id buffer, emptied.
func (sc *Scratch) ids() []int32 {
	if sc.touched == nil {
		sc.touched = make([]int32, 0, 64)
	}
	return sc.touched[:0]
}

// PartialVector is the package-level PartialVector run on sc's
// buffers. The results are copies: they stay valid after sc's next use.
func (sc *Scratch) PartialVector(g *graph.Graph, u int32, isHub []bool, p Params) (partial sparse.Packed, hubBlocked sparse.Vector, err error) {
	st, err := pushPartial(g, u, isHub, p, sc)
	if err != nil {
		return sparse.Packed{}, nil, err
	}
	sc.recordPush(&st)
	return st.drainPacked(), st.drainVector(st.aux), nil
}

// PartialEntries computes the partial vector of u (see PartialVector)
// and returns its nonzero (localID, value) entries in unspecified order.
// The slice ALIASES the scratch's entry buffer — it is valid only until
// the next PartialEntries/SkeletonEntries call on sc; callers must drain
// it first.
func (sc *Scratch) PartialEntries(g *graph.Graph, u int32, isHub []bool, p Params) ([]sparse.Entry, error) {
	st, err := pushPartial(g, u, isHub, p, sc)
	if err != nil {
		return nil, err
	}
	sc.recordPush(&st)
	sc.entries = st.appendEntries(sc.entries[:0])
	return sc.entries, nil
}

// SkeletonEntries computes s_·(h) (see SkeletonVector) and returns the
// nonzero (localID, value) entries in unspecified order. Same aliasing
// contract as PartialEntries.
func (sc *Scratch) SkeletonEntries(g *graph.Graph, h int32, p Params) ([]sparse.Entry, error) {
	st, err := pushSkeleton(g, h, p, sc)
	if err != nil {
		return nil, err
	}
	sc.recordPush(&st)
	sc.entries = st.appendEntries(sc.entries[:0])
	return sc.entries, nil
}

// recordPush tallies one kernel invocation.
func (sc *Scratch) recordPush(st *pushState) {
	sc.Stats.Add(KernelStats{Vectors: 1, Pushes: int64(st.pushes)})
}

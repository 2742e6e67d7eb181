// Package fastppv implements the paper's approximate comparator, FastPPV
// (Zhu et al., PVLDB 2013 [49]): scheduled approximation over hub-based
// tour decomposition. Tours are partitioned by the hub nodes they pass;
// the query-time scheduler expands the most important tour sets first and
// discards the unimportant tail, trading accuracy for speed.
//
// The implementation uses the renewal identity the scheduler exploits:
//
//	r_u = p_u + Σ_h blocked_u(h) · r_h
//
// where p_u is the hub-free partial vector of u and blocked_u(h) the walk
// mass frozen at hub h (both produced by ppr.PartialVector). Offline we
// pre-compute (p_h, blocked_h) for every hub; online we start from the
// query's own (p_u, blocked_u) and repeatedly expand the hub with the
// largest pending mass, adding mass·p_h to the answer and mass·blocked_h
// back onto the queue. Stopping after a budget of expansions discards the
// remaining mass — exactly the scheduled-approximation trade-off. The
// number of hubs plays the role of FastPPV's hub-length parameter
// (Fast-100, Fast-1000, ... in §6.2.9).
package fastppv

import (
	"container/heap"
	"fmt"
	"sync"

	"exactppr/internal/graph"
	"exactppr/internal/ppr"
	"exactppr/internal/sparse"
)

// Index is the offline FastPPV structure.
type Index struct {
	G      *graph.Graph
	Params ppr.Params
	Hubs   []int32

	// Prime[h] = p_h: the hub-free PPV contribution of hub h, packed at
	// build time — the scheduler only ever folds it.
	Prime map[int32]sparse.Packed
	// Blocked[h](h') = walk mass from h frozen at hub h'. Kept as a map:
	// the scheduler drains it entry-wise into its priority queue.
	Blocked map[int32]sparse.Vector

	isHub []bool
}

// BuildIndex pre-computes the FastPPV structures with the hubCount
// top-PageRank nodes as hubs: one ppr.Run task per hub on `workers`
// (0 = GOMAXPROCS). A failing build returns the error of its first
// failing hub in PageRank order.
func BuildIndex(g *graph.Graph, hubCount int, params ppr.Params, workers int) (*Index, error) {
	if err := params.ValidatePrecompute(); err != nil {
		return nil, err
	}
	if hubCount < 1 || hubCount > g.NumNodes() {
		return nil, fmt.Errorf("fastppv: hubCount %d out of range [1,%d]", hubCount, g.NumNodes())
	}
	hubs, err := ppr.TopPageRank(g, hubCount, params)
	if err != nil {
		return nil, err
	}
	ix := &Index{
		G:       g,
		Params:  params,
		Hubs:    hubs,
		Prime:   make(map[int32]sparse.Packed, hubCount),
		Blocked: make(map[int32]sparse.Vector, hubCount),
		isHub:   make([]bool, g.NumNodes()),
	}
	for _, h := range hubs {
		ix.isHub[h] = true
	}
	prime := make([]sparse.Packed, len(hubs))
	blocked := make([]sparse.Vector, len(hubs))
	_, err = ppr.Run(len(hubs), workers, func(sc *ppr.Scratch, i int) error {
		var err error
		prime[i], blocked[i], err = sc.PartialVector(g, hubs[i], ix.isHub, ix.Params)
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, h := range hubs {
		ix.Prime[h] = prime[i]
		ix.Blocked[h] = blocked[i]
	}
	return ix, nil
}

// scratchPool lends queries the kernel buffers of their own partial
// vector, so a query does not allocate O(|V|) scratch per call.
var scratchPool = sync.Pool{New: func() any { return new(ppr.Scratch) }}

// pending is the scheduler's max-heap of (hub, mass) work items.
type pending struct {
	hubs []int32
	mass map[int32]float64
}

func (p *pending) Len() int { return len(p.hubs) }
func (p *pending) Less(i, j int) bool {
	mi, mj := p.mass[p.hubs[i]], p.mass[p.hubs[j]]
	if mi != mj {
		return mi > mj // max-heap on mass
	}
	return p.hubs[i] < p.hubs[j]
}
func (p *pending) Swap(i, j int)      { p.hubs[i], p.hubs[j] = p.hubs[j], p.hubs[i] }
func (p *pending) Push(x interface{}) { p.hubs = append(p.hubs, x.(int32)) }
func (p *pending) Pop() interface{} {
	x := p.hubs[len(p.hubs)-1]
	p.hubs = p.hubs[:len(p.hubs)-1]
	return x
}

// QueryStats reports one approximate query.
type QueryStats struct {
	Result sparse.Vector
	// Expansions is the number of hub expansions the scheduler performed.
	Expansions int
	// DiscardedMass is the total walk mass left unexpanded — an upper
	// bound on the L1 error of the result.
	DiscardedMass float64
}

// Query approximates the PPV of u with at most budget hub expansions
// (budget ≤ 0 means unlimited: expand until the pending mass drops below
// the tolerance, which recovers near-exact results).
func (ix *Index) Query(u int32, budget int) (*QueryStats, error) {
	if u < 0 || int(u) >= ix.G.NumNodes() {
		return nil, fmt.Errorf("fastppv: query %d out of range", u)
	}
	sc := scratchPool.Get().(*ppr.Scratch)
	pu, blockedU, err := sc.PartialVector(ix.G, u, ix.isHub, ix.Params)
	scratchPool.Put(sc)
	if err != nil {
		return nil, err
	}
	acc := sparse.AcquireAccumulator(ix.G.NumNodes())
	defer acc.Release()
	acc.AddPacked(pu, 1)
	pq := &pending{mass: make(map[int32]float64)}
	for h, m := range blockedU {
		pq.mass[h] = m
		pq.hubs = append(pq.hubs, h)
	}
	heap.Init(pq)
	stats := &QueryStats{}
	// Below this mass an expansion cannot move any entry by more than
	// the tolerance; treat it as converged.
	floor := ix.Params.Eps

	for pq.Len() > 0 {
		if budget > 0 && stats.Expansions >= budget {
			break
		}
		h := heap.Pop(pq).(int32)
		m := pq.mass[h]
		delete(pq.mass, h)
		if m <= floor {
			// The heap is mass-ordered: everything left is below the
			// floor too. Count it all as discarded and stop.
			stats.DiscardedMass += m
			break
		}
		stats.Expansions++
		acc.AddPacked(ix.Prime[h], m)
		for h2, bm := range ix.Blocked[h] {
			add := m * bm
			if _, ok := pq.mass[h2]; ok {
				pq.mass[h2] += add
				heap.Init(pq) // mass changed: restore heap order
			} else {
				pq.mass[h2] = add
				heap.Push(pq, h2)
			}
		}
	}
	for _, m := range pq.mass {
		stats.DiscardedMass += m
	}
	stats.Result = acc.Vector()
	return stats, nil
}

// SpaceBytes reports the space of the index, in the stores' measure
// (sparse.SpaceBytes).
func (ix *Index) SpaceBytes() int64 {
	var total int64
	for _, v := range ix.Prime {
		total += sparse.SpaceBytes(v.Len())
	}
	for _, v := range ix.Blocked {
		total += sparse.SpaceBytes(v.Len())
	}
	return total
}

package core

import (
	"fmt"
	"sync"

	"exactppr/internal/hierarchy"
	"exactppr/internal/sparse"
)

// The serving fold. Every backend — the in-memory Store, the
// disk-resident DiskStore, and the flat JWStore baseline — answers a
// query by running serve over its vectorSource, restricted by an owner
// to the one machine's slice the store holds (nil: the whole store), so
// a query on a slice answers that slice's additive share. The identity
// is the one in the package comment, written once; the backends differ
// only in where the vectors come from.

// vectorSource is what the fold reads from a backend.
type vectorSource interface {
	// acquire pins the source for one query — fold and drain — and
	// release unpins it (the disk store's lifecycle lock; a no-op in
	// memory).
	acquire() error
	release()
	// numNodes is the size of the node id space.
	numNodes() int
	// alpha is the teleport probability the vectors were computed with.
	alpha() float64
	// isHub reports whether u's base case is its own hub partial.
	isHub(u int32) bool
	// pathHubs returns the hubs h on Path(u) that own admits, with
	// s_u(h), in fold order — Path(u) root→home, then node.Hubs order.
	// Hubs with s_u(h) = 0 may be left out, except h = u. scratch is a
	// buffer the source may fill and return.
	pathHubs(u int32, own *owner, scratch *planRow) (planRow, error)
	// partial returns hub h's adjusted partial vector P_h.
	partial(h int32) (sparse.Packed, error)
	// leaf returns non-hub u's leaf-level local PPV.
	leaf(u int32) (sparse.Packed, error)
}

// owner is one machine's slice of a store under the paper's
// hub-distributed load balancing (§4.4). Hub h belongs to machine
// h.DealRank mod total — the ranks deal each tree node's hubs
// round-robin with one global cursor, so machines stay balanced
// although most tree nodes hold only one or two hubs, and a rank never
// changes across updates, so neither does an existing hub's owner.
// Non-hub u's leaf vector belongs to machine u mod total. Both follow
// from the hierarchy alone, so memory and disk slices of one store own
// the same vectors. A nil *owner admits everything.
type owner struct {
	index, total int
	h            *hierarchy.Hierarchy // the ranks the hub rule reads
}

func (o *owner) hub(h int32) bool { return o == nil || o.h.DealRank(h)%o.total == o.index }

func (o *owner) leaf(u int32) bool { return o == nil || int(u)%o.total == o.index }

// admits reports whether o's slice holds the record of key in payload
// section sec: a leaf PPV by the leaf rule, a hub vector by the hub rule.
func (o *owner) admits(sec int8, key int32) bool {
	if sec == secLeafPPV {
		return o.leaf(key)
	}
	return o.hub(key)
}

// checkShard rejects a machine index outside an n-way split.
func checkShard(i, n int) error {
	if n < 1 || i < 0 || i >= n {
		return fmt.Errorf("core: shard %d of %d does not exist", i, n)
	}
	return nil
}

// serve answers one query: node u alone when set is nil, else the
// weighted preference set (PPV linearity). For each node it folds w
// times own's share of the node's exact PPV into one pooled accumulator
// — Σ_h [S_u(h)/α·P_h + S_u(h)·x_h] over the owned path hubs, plus the
// final term when own holds it — and drains the accumulator while src
// is still pinned, so nothing drained aliases a mapping that Close may
// unmap.
//
// The fold lives in this one frame on purpose: the coordinator runs
// each in-process machine's call on a fresh goroutine, and a disk fold
// is deep enough that each frame added above it can make those
// goroutines copy their stacks once more.
func serve[T any](src vectorSource, own *owner, u int32, set *Preference, drain func(*sparse.Accumulator) T) (out T, err error) {
	if err = src.acquire(); err != nil {
		return out, err
	}
	defer src.release()
	n := src.numNodes()
	nodes, ws := []int32{u}, []float64{1}
	if set != nil {
		if ws, err = set.normalized(n); err != nil {
			return out, err
		}
		nodes = set.Nodes
	}
	acc := sparse.AcquireAccumulator(n)
	defer acc.Release()
	scratch := rowPool.Get().(*planRow)
	defer rowPool.Put(scratch)
	alpha := src.alpha()
	for i, u := range nodes {
		if u < 0 || int(u) >= n {
			return out, nodeOutOfRange("query", u)
		}
		w := ws[i]
		row, err := src.pathHubs(u, own, scratch)
		if err != nil {
			return out, err
		}
		for k, hub := range row.hubs {
			su := row.s[k]
			if hub == u {
				su -= alpha // S_u(h) = s_u(h) − α·f_u(h)
			}
			if su == 0 {
				continue
			}
			partial, err := src.partial(hub)
			if err != nil {
				return out, err
			}
			acc.AddPacked(partial, w*su/alpha)
			acc.Add(hub, w*su)
		}
		// The recursion's base case belongs to whoever stores it: the
		// hub's own partial p_u = P_u + α·x_u when u is a hub, else u's
		// leaf PPV.
		if src.isHub(u) {
			if own.hub(u) {
				partial, err := src.partial(u)
				if err != nil {
					return out, err
				}
				acc.AddPacked(partial, w)
				acc.Add(u, w*alpha)
			}
		} else if own.leaf(u) {
			leaf, err := src.leaf(u)
			if err != nil {
				return out, err
			}
			acc.AddPacked(leaf, w)
		}
	}
	return drain(acc), nil
}

// rowPool recycles the scratch rows pathHubs fills: the in-memory walks
// and the disk plan rows filtered for a shard.
var rowPool = sync.Pool{New: func() any { return new(planRow) }}

// drainTopK drains the k highest-scoring entries; the full-vector
// drains are the method expressions (*sparse.Accumulator).Vector and
// (*sparse.Accumulator).Packed.
func drainTopK(k int) func(*sparse.Accumulator) []sparse.Entry {
	return func(acc *sparse.Accumulator) []sparse.Entry { return acc.TopK(k) }
}

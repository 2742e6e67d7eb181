package core

import (
	"fmt"

	"exactppr/internal/sparse"
)

// Shard is the slice of a Store assigned to one machine under the paper's
// hub-distributed scheme (§4.4): every subgraph's hub set is divided
// evenly across the s machines, and the leaf-level vectors are likewise
// spread evenly (see owner for the rule). Each machine answers a query
// with ONE sparse vector; the coordinator sums the vectors — the shard
// outputs form an exact additive decomposition of the PPV
// (TestShardsSumToQuery).
//
// A Shard wraps a shard-local store: one that holds only the vectors of
// its slice, so a machine that keeps only its Shard keeps only 1/s of
// the pre-computation.
type Shard struct {
	Index, Total int
	store        *Store
}

// Split divides the store across n machines: each subgraph's hub list is
// dealt round-robin with a GLOBAL cursor (so machines stay balanced even
// though most tree nodes contribute only one or two hubs), and non-hub
// node u's leaf vector goes to machine u mod n — the paper's even
// division of hub sets and leaf subgraphs (§4.4). Each shard gets its
// own shard-local store; the graph, the tree and the immutable packed
// vectors are shared with s, not copied. A shard-local store cannot be
// split again. Because the graph is shared, at most one of s and its
// shards may go on to absorb updates (see Store.ApplyUpdates); a
// worker that updates its slice loads it on its own (LoadShard) or
// narrows a LiveStore it owns (LiveStore.Narrow).
func Split(s *Store, n int) ([]*Shard, error) {
	if o := s.own; o != nil {
		return nil, fmt.Errorf("core: store already holds only shard %d of %d and cannot be re-split", o.index, o.total)
	}
	owners, err := split(s.H, n)
	if err != nil {
		return nil, err
	}
	shards := make([]*Shard, n)
	for i, own := range owners {
		shards[i] = s.narrow(own).Shard()
	}
	return shards, nil
}

// narrow returns the shard-local store holding own's slice of the whole
// store s: fresh section maps over the shared vectors, graph and tree.
func (s *Store) narrow(own *owner) *Store {
	ns := &Store{
		H:          s.H,
		Params:     s.Params,
		HubPartial: make(map[int32]sparse.Packed, len(s.HubPartial)/own.total+1),
		Skeleton:   make(map[int32]sparse.Packed, len(s.Skeleton)/own.total+1),
		LeafPPV:    make(map[int32]sparse.Packed, len(s.LeafPPV)/own.total+1),
		own:        own,
	}
	for _, sec := range [...]struct {
		from, to map[int32]sparse.Packed
		admit    func(int32) bool
	}{
		{s.HubPartial, ns.HubPartial, own.hub},
		{s.Skeleton, ns.Skeleton, own.hub},
		{s.LeafPPV, ns.LeafPPV, own.leaf},
	} {
		for k, v := range sec.from {
			if sec.admit(k) {
				sec.to[k] = v
			}
		}
	}
	return ns
}

// Shard returns the machine slice s serves: a shard-local store's own
// shard, or — for a whole store — the one shard of a one-machine
// cluster. Either way the Shard wraps s itself.
func (s *Store) Shard() *Shard {
	if s.own == nil {
		return &Shard{Index: 0, Total: 1, store: s}
	}
	return &Shard{Index: s.own.index, Total: s.own.total, store: s}
}

// QueryVector computes this machine's additive share of the PPV of u —
// Algorithm 1 of the paper (with the skeleton hub-entry term included so
// the shares stay exact; see the package comment).
func (sh *Shard) QueryVector(u int32) (sparse.Vector, error) {
	return serve(sh.store, sh.store.own, u, nil, (*sparse.Accumulator).Vector)
}

// QueryPacked is QueryVector draining into the columnar representation.
// This is what workers ship: the sorted arrays encode straight into the
// canonical wire format with no map iteration.
func (sh *Shard) QueryPacked(u int32) (sparse.Packed, error) {
	return serve(sh.store, sh.store.own, u, nil, (*sparse.Accumulator).Packed)
}

// QuerySetVector is the shard-side preference-set fold: the weighted
// combination of the shard's per-node shares. Summing all shards'
// QuerySetVector outputs yields exactly QuerySet's result, still in one
// round.
func (sh *Shard) QuerySetVector(p Preference) (sparse.Vector, error) {
	return serve(sh.store, sh.store.own, 0, &p, (*sparse.Accumulator).Vector)
}

// QuerySetPacked is QuerySetVector draining into the columnar form the
// wire protocol encodes directly.
func (sh *Shard) QuerySetPacked(p Preference) (sparse.Packed, error) {
	return serve(sh.store, sh.store.own, 0, &p, (*sparse.Accumulator).Packed)
}

// QueryWork returns the number of sparse-vector entries this shard folds
// to answer a query for u — a deterministic proxy for per-machine compute
// that is immune to scheduling noise. The paper's load-balance claim
// (§4.4) is that the MAX of this quantity across machines shrinks as
// 1/machines; see the fig10 experiment.
func (sh *Shard) QueryWork(u int32) (int64, error) {
	s := sh.store
	if u < 0 || int(u) >= s.H.G.NumNodes() {
		return 0, nodeOutOfRange("query", u)
	}
	var work int64
	row, _ := s.pathHubs(u, s.own, new(planRow))
	for i, h := range row.hubs {
		work++ // skeleton lookup
		if row.s[i] != 0 {
			work += int64(s.HubPartial[h].Len()) + 1
		}
	}
	if s.H.IsHub(u) {
		if s.own.hub(u) {
			work += int64(s.HubPartial[u].Len()) + 1
		}
	} else if s.own.leaf(u) {
		work += int64(s.LeafPPV[u].Len())
	}
	return work, nil
}

// HubCount returns the number of hubs assigned to the shard.
func (sh *Shard) HubCount() int { return len(sh.store.HubPartial) }

// LeafCount returns the number of leaf vectors assigned to the shard.
func (sh *Shard) LeafCount() int { return len(sh.store.LeafPPV) }

// SpaceBytes reports the encoded size of the vectors THIS shard stores —
// the per-machine space metric of §6.2.3 (no redundancy across machines).
func (sh *Shard) SpaceBytes() int64 { return sh.store.SpaceBytes() }

package core

import (
	"fmt"

	"exactppr/internal/hierarchy"
	"exactppr/internal/sparse"
)

// Shard is the slice of a Store assigned to one machine under the paper's
// hub-distributed scheme (§4.4): every subgraph's hub set is divided
// evenly across the s machines, and the leaf-level vectors are likewise
// spread evenly (see owner for the rule). Each machine answers a query
// with ONE sparse vector; the coordinator sums the vectors — the shard
// outputs form an exact additive decomposition of the PPV
// (TestShardsSumToQuery).
type Shard struct {
	Index, Total int
	store        *Store
	own          *owner
}

// Split divides the store across n machines: each subgraph's hub list is
// dealt round-robin with a GLOBAL cursor (so machines stay balanced even
// though most tree nodes contribute only one or two hubs), and non-hub
// node u's leaf vector goes to machine u mod n — the paper's even
// division of hub sets and leaf subgraphs (§4.4).
func Split(s *Store, n int) ([]*Shard, error) {
	owners, err := split(s.H, n)
	if err != nil {
		return nil, err
	}
	shards := make([]*Shard, n)
	for i, own := range owners {
		shards[i] = &Shard{Index: i, Total: n, store: s, own: own}
	}
	return shards, nil
}

// QueryVector computes this machine's additive share of the PPV of u —
// Algorithm 1 of the paper (with the skeleton hub-entry term included so
// the shares stay exact; see the package comment).
func (sh *Shard) QueryVector(u int32) (sparse.Vector, error) {
	return serve(sh.store, sh.own, u, nil, (*sparse.Accumulator).Vector)
}

// QueryPacked is QueryVector draining into the columnar representation.
// This is what workers ship: the sorted arrays encode straight into the
// canonical wire format with no map iteration.
func (sh *Shard) QueryPacked(u int32) (sparse.Packed, error) {
	return serve(sh.store, sh.own, u, nil, (*sparse.Accumulator).Packed)
}

// QuerySetVector is the shard-side preference-set fold: the weighted
// combination of the shard's per-node shares. Summing all shards'
// QuerySetVector outputs yields exactly QuerySet's result, still in one
// round.
func (sh *Shard) QuerySetVector(p Preference) (sparse.Vector, error) {
	return serve(sh.store, sh.own, 0, &p, (*sparse.Accumulator).Vector)
}

// QuerySetPacked is QuerySetVector draining into the columnar form the
// wire protocol encodes directly.
func (sh *Shard) QuerySetPacked(p Preference) (sparse.Packed, error) {
	return serve(sh.store, sh.own, 0, &p, (*sparse.Accumulator).Packed)
}

// QueryWork returns the number of sparse-vector entries this shard folds
// to answer a query for u — a deterministic proxy for per-machine compute
// that is immune to scheduling noise. The paper's load-balance claim
// (§4.4) is that the MAX of this quantity across machines shrinks as
// 1/machines; see the fig10 experiment.
func (sh *Shard) QueryWork(u int32) (int64, error) {
	s := sh.store
	if u < 0 || int(u) >= s.H.G.NumNodes() {
		return 0, fmt.Errorf("core: query node %d out of range", u)
	}
	var work int64
	row, _ := s.pathHubs(u, sh.own, new(planRow))
	for i, h := range row.hubs {
		work++ // skeleton lookup
		if row.s[i] != 0 {
			work += int64(s.HubPartial[h].Len()) + 1
		}
	}
	if s.H.IsHub(u) {
		if sh.own.hub(u) {
			work += int64(s.HubPartial[u].Len()) + 1
		}
	} else if sh.own.leaf(u) {
		work += int64(s.LeafPPV[u].Len())
	}
	return work, nil
}

// HubCount returns the number of hubs assigned to the shard.
func (sh *Shard) HubCount() int { return len(sh.ownedHubs()) }

// LeafCount returns the number of leaf vectors assigned to the shard.
func (sh *Shard) LeafCount() int { return len(sh.ownedLeaves()) }

// SpaceBytes reports the encoded size of the vectors THIS shard stores —
// the per-machine space metric of §6.2.3 (no redundancy across machines).
func (sh *Shard) SpaceBytes() int64 {
	var total int64
	s := sh.store
	for _, h := range sh.ownedHubs() {
		total += int64(sparse.EncodedSizePacked(s.HubPartial[h]))
		total += int64(sparse.EncodedSizePacked(s.Skeleton[h]))
	}
	for _, u := range sh.ownedLeaves() {
		total += int64(sparse.EncodedSizePacked(s.LeafPPV[u]))
	}
	return total
}

func (sh *Shard) ownedHubs() []int32 { return ownedHubs(sh.store.H, sh.own) }

func (sh *Shard) ownedLeaves() []int32 { return ownedKeys(sh.store.LeafPPV, sh.own) }

// ownedHubs lists the hierarchy's hubs that own admits, in deal order.
func ownedHubs(h *hierarchy.Hierarchy, own *owner) []int32 {
	var out []int32
	for _, node := range h.Nodes() {
		for _, hub := range node.Hubs {
			if own.hub(hub) {
				out = append(out, hub)
			}
		}
	}
	return out
}

// ownedKeys lists the leaf-section keys that own admits (any order).
func ownedKeys[V any](leaves map[int32]V, own *owner) []int32 {
	var out []int32
	for u := range leaves {
		if own.leaf(u) {
			out = append(out, u)
		}
	}
	return out
}

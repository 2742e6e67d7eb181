package core

import (
	"fmt"

	"exactppr/internal/hierarchy"
	"exactppr/internal/sparse"
)

// Split divides the store across n machines under the paper's
// hub-distributed scheme (§4.4): each subgraph's hub list is dealt
// round-robin with a GLOBAL cursor (so machines stay balanced even
// though most tree nodes contribute only one or two hubs), and non-hub
// node u's leaf vector goes to machine u mod n (see owner for the
// rule). Each machine gets its slice as a shard-local store holding
// only the vectors of that slice, so a machine that keeps only its slice
// keeps only 1/n of the pre-computation; a query on it answers the
// slice's additive share, and the n shares sum to the exact PPV
// (TestShardsSumToQuery). The graph, the tree and the immutable packed
// vectors are shared with s, not copied. A shard-local store cannot be
// split again. Because the graph is shared, at most one of s and its
// slices may go on to absorb updates (see Store.ApplyUpdates); a worker
// that updates its slice loads it on its own (LoadShard) or narrows a
// LiveStore it owns (LiveStore.Narrow).
func Split(s *Store, n int) ([]*Store, error) {
	owners, err := split(s.H, s.own, n)
	if err != nil {
		return nil, err
	}
	out := make([]*Store, n)
	for i, own := range owners {
		out[i] = s.narrow(own)
	}
	return out, nil
}

// SplitDisk divides the disk store across n machines with Split's
// assignment, so disk and memory slices of one store own the same
// vectors and answer the same share bytes. Each slice is a DiskStore
// view over ds's file bytes and index: nothing is copied, and
// closing any view closes them all.
func SplitDisk(ds *DiskStore, n int) ([]*DiskStore, error) {
	owners, err := split(ds.H, ds.own, n)
	if err != nil {
		return nil, err
	}
	views := make([]*DiskStore, n)
	for i, own := range owners {
		views[i] = &DiskStore{diskFile: ds.diskFile, own: own}
	}
	return views, nil
}

// split returns every machine's slice of h under an n-way split — the
// one shard-assignment rule behind Split and SplitDisk. cur is the
// slice the store being split already holds: only a whole store (nil)
// splits.
func split(h *hierarchy.Hierarchy, cur *owner, n int) ([]*owner, error) {
	if cur != nil {
		return nil, fmt.Errorf("core: store already holds only shard %d of %d and cannot be re-split", cur.index, cur.total)
	}
	if n < 1 {
		return nil, fmt.Errorf("core: cannot split into %d shards", n)
	}
	owners := make([]*owner, n)
	for i := range owners {
		owners[i] = &owner{index: i, total: n, h: h}
	}
	return owners, nil
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

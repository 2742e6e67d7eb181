package core

import (
	"fmt"
	"iter"
)

// Split divides the store across n machines under the paper's
// hub-distributed scheme (§4.4): each subgraph's hub list is dealt
// round-robin with a GLOBAL cursor (so machines stay balanced even
// though most tree nodes contribute only one or two hubs), and non-hub
// node u's leaf vector goes to machine u mod n (see owner for the
// rule). Each machine gets its slice as a shard-local store holding
// only the vectors of that slice, copied into tables of the slice's own
// size, so a machine that keeps only its slice keeps only 1/n of the
// pre-computation and no slice pins the whole store's arenas; a query
// on it answers the slice's additive share, and the n shares sum to the
// exact PPV (TestShardsSumToQuery). The graph and the tree are shared
// with s, not copied; neither ever changes, so s and each of its slices
// can go on to absorb updates on their own (see Store.ApplyUpdates). A
// shard-local store cannot be split again.
func Split(s *Store, n int) ([]*Store, error) {
	owners, err := split(s.own, n, s.H.G.NumNodes(), treeHubs(s.H))
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
// view over ds's file bytes, record offsets and deal ranks, holding only
// its own hub bits: nothing else is copied, and closing any view closes
// them all. It counts each slice's vectors from the file, so a closed
// store fails with ErrStoreClosed.
func SplitDisk(ds *DiskStore, n int) ([]*DiskStore, error) {
	owners, err := split(ds.own, n, ds.n, ds.dealt())
	if err != nil {
		return nil, err
	}
	if err := ds.acquire(); err != nil {
		return nil, err
	}
	defer ds.release()
	lens := ds.skeletonLens()
	views := make([]*DiskStore, n)
	for i, own := range owners {
		views[i] = ds.view(own, lens)
	}
	return views, nil
}

// split returns every machine's slice under an n-way split of a store
// over nodes ids, whose hubs and their deal ranks hubs yields — the one
// shard-assignment rule behind Split and SplitDisk. cur is the slice the
// store being split already holds: only a whole store (nil) splits.
func split(cur *owner, n, nodes int, hubs iter.Seq2[int32, int32]) ([]*owner, error) {
	if cur != nil {
		return nil, fmt.Errorf("core: store already holds only shard %d of %d and cannot be re-split", cur.index, cur.total)
	}
	if n < 1 {
		return nil, fmt.Errorf("core: cannot split into %d shards", n)
	}
	owners := make([]*owner, n)
	for i := range owners {
		owners[i] = newOwner(i, n, nodes, hubs)
	}
	return owners, nil
}

// narrow returns the shard-local store holding own's slice of the whole
// store s: fresh tables holding copies of the slice's vectors, over the
// shared graph and tree.
func (s *Store) narrow(own *owner) *Store {
	return &Store{
		H:          s.H,
		Params:     s.Params,
		HubPartial: s.HubPartial.filter(own.hub),
		Skeleton:   s.Skeleton.filter(own.hub),
		LeafPPV:    s.LeafPPV.filter(own.leaf),
		own:        own,
		history:    s.history,
	}
}

package core

import (
	"exactppr/internal/hierarchy"
	"exactppr/internal/sparse"
)

// DiskShard is the slice of a DiskStore assigned to one machine under
// the paper's hub-distributed scheme (§4.4) — the disk-resident
// counterpart of Shard, so a serving fleet can run the zero-copy mmap
// path behind the same coordinator/gateway stack. SplitDisk and Split
// share one assignment rule (see owner), and both backends run the same
// fold, so shard shares from the two are the same bytes and sum to the
// same exact PPV.
//
// All shards of one DiskStore share its file, mapping, and cache;
// closing the store invalidates every shard.
type DiskShard struct {
	Index, Total int
	ds           *DiskStore
	own          *owner
}

// SplitDisk divides the disk store across n machines with Split's
// assignment: each tree node's hub list is dealt round-robin with a
// global cursor, and non-hub node u's leaf vector goes to machine u mod
// n.
func SplitDisk(ds *DiskStore, n int) ([]*DiskShard, error) {
	owners, err := split(ds.H, n)
	if err != nil {
		return nil, err
	}
	shards := make([]*DiskShard, n)
	for i, own := range owners {
		shards[i] = &DiskShard{Index: i, Total: n, ds: ds, own: own}
	}
	return shards, nil
}

// QueryPacked computes this machine's additive share of the PPV of u in
// columnar form — what the wire protocol encodes directly.
func (sh *DiskShard) QueryPacked(u int32) (sparse.Packed, error) {
	return serve(sh.ds, sh.own, u, nil, (*sparse.Accumulator).Packed)
}

// QuerySetPacked is the shard-side preference-set fold.
func (sh *DiskShard) QuerySetPacked(p Preference) (sparse.Packed, error) {
	return serve(sh.ds, sh.own, 0, &p, (*sparse.Accumulator).Packed)
}

// HubCount returns the number of hubs assigned to the shard.
func (sh *DiskShard) HubCount() int { return len(ownedHubs(sh.ds.H, sh.own)) }

// LeafCount returns the number of leaf vectors assigned to the shard.
func (sh *DiskShard) LeafCount() int { return len(ownedKeys(sh.ds.idx[secLeafPPV], sh.own)) }

// SpaceBytes reports the on-disk payload bytes of the vectors THIS shard
// serves — the per-machine space metric of §6.2.3.
func (sh *DiskShard) SpaceBytes() int64 {
	var total int64
	for _, h := range ownedHubs(sh.ds.H, sh.own) {
		total += int64(sh.ds.idx[secHubPartial][h].len)
		total += int64(sh.ds.idx[secSkeleton][h].len)
	}
	for _, u := range ownedKeys(sh.ds.idx[secLeafPPV], sh.own) {
		total += int64(sh.ds.idx[secLeafPPV][u].len)
	}
	return total
}

// ownedHubs lists the hierarchy's hubs that own admits, in Nodes()×Hubs order.
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

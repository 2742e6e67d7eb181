package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"exactppr/internal/graph"
	"exactppr/internal/hierarchy"
)

// Incremental maintenance. A Store is exact because every stored vector
// is local to one tree node's virtual subgraph, so an edge-delta batch
// invalidates only the nodes on the edge tails' root-to-home chains
// (see internal/hierarchy's dirty-set semantics). ApplyUpdates maps a
// batch to a new graph and a repaired hierarchy over it (hub promotion
// for separator-crossing inserts), and recomputes ONLY the dirty
// partials, skeletons, and leaf PPVs; the new snapshot's tables merge
// those with copies of the clean vectors of the previous one, in key
// order. No batch writes the previous snapshot, its tree or its graph:
// a snapshot never changes once built. LiveStore publishes the result
// with an atomic pointer swap so in-flight queries keep serving the old
// snapshot.
//
// A shard-local store (Split, LoadShard) recomputes only the dirty
// vectors its slice holds: hub ownership follows the hierarchy's deal
// ranks, which updates never change for an existing hub, so the slice
// stays the same across batches and machines that apply the same batch
// to copies of the same store together recompute each dirty vector
// exactly once.

// UpdateInfo reports the cost of one incremental update batch.
type UpdateInfo struct {
	// Inserted/Deleted count the edge operations that actually changed
	// the graph (no-op operations in the batch are skipped).
	Inserted, Deleted int
	// DirtyNodes is the number of tree nodes whose virtual subgraph
	// changed.
	DirtyNodes int
	// Promoted is the number of nodes promoted into a hub set to keep
	// the separator property (and with it exactness) intact.
	Promoted int
	// Recomputed counts vectors recomputed by this batch; StoreVectors
	// counts all vectors in the updated store, i.e. what a from-scratch
	// rebuild would compute. Recomputed < StoreVectors is the whole
	// point of dirty-partition maintenance. A shard-local store counts
	// only the vectors of its slice, so the shards' counts sum to the
	// whole store's.
	Recomputed, StoreVectors int
	// Digest fingerprints the batch's effect on the whole store — every
	// dirty vector key, before any slice filter, and every promoted hub
	// with its deal rank. Every shard of one store that applies the same
	// batch reports the same digest. It is 0 for a batch that changes
	// no edge.
	Digest uint64
	// Epoch and History identify the snapshot the batch leaves: its
	// graph's epoch and its batch history (see Store.history). Every
	// shard of one store that has absorbed the same batches holds the
	// same pair, whether or not this batch changed it.
	Epoch, History uint64
	// Pushes is the total number of residual pops the recompute kernels
	// performed.
	Pushes int64
	// Wall is the end-to-end update time.
	Wall time.Duration
}

// ApplyUpdates applies an edge-delta batch and returns a NEW store in
// which only the dirty partitions were recomputed — for a shard-local
// store, only their vectors in its slice, and the new store holds the
// same slice. The receiver, its tree and its graph are never written:
// it stays a valid snapshot and a valid base for any batch, this one
// included, so a batch that fails can be applied again. A batch that
// changes no edge returns the receiver.
//
// Concurrency: anything may read any snapshot (old or new) throughout —
// queries, traversals of its graph, Save.
func (s *Store) ApplyUpdates(d graph.Delta, workers int) (*Store, *UpdateInfo, error) {
	start := time.Now()
	upd, err := s.H.ApplyDelta(d)
	if err != nil {
		return nil, nil, fmt.Errorf("core: plan update: %w", err)
	}
	info := &UpdateInfo{Inserted: upd.Inserted, Deleted: upd.Deleted}
	if upd.Inserted == 0 && upd.Deleted == 0 {
		info.Epoch, info.History = s.H.G.Epoch(), s.history
		info.StoreVectors = s.storeVectors()
		info.Wall = time.Since(start)
		return s, info, nil
	}

	// The new snapshot's tables are built by runTasks: the recomputed
	// vectors merged with copies of s's clean ones, less the stale leaf
	// PPVs of promoted nodes, whose new hub vectors the dirty-node
	// recompute below produces.
	ns := &Store{H: upd.H, Params: s.Params}
	if o := s.own; o != nil {
		ns.own = newOwner(o.index, o.total, upd.H.G.NumNodes(), treeHubs(upd.H))
	}

	var tasks []precomputeTask
	for _, n := range upd.Dirty {
		tasks = append(tasks, nodeTasks(n)...)
	}
	info.Digest = updateDigest(tasks, upd)
	ns.history = nextHistory(s.history, info)
	info.Epoch, info.History = upd.H.G.Epoch(), ns.history
	tasks = slices.DeleteFunc(tasks, func(t precomputeTask) bool {
		if t.hub {
			return !ns.own.hub(t.u)
		}
		return !ns.own.leaf(t.u)
	})
	withSubgraphs(upd.H.G, tasks, workers)
	_, kstats, err := ns.runTasks(s, tasks, workers)
	if err != nil {
		return nil, nil, fmt.Errorf("core: recompute after delta: %w", err)
	}
	for _, t := range tasks {
		info.Recomputed += t.Vectors()
	}
	info.Pushes = kstats.Pushes
	info.DirtyNodes = len(upd.Dirty)
	info.Promoted = len(upd.Promoted)
	info.StoreVectors = ns.storeVectors()
	info.Wall = time.Since(start)
	return ns, info, nil
}

// updateDigest is UpdateInfo.Digest: FNV-64 over the batch's dirty
// vector keys, in task order, then its promoted hubs with their ranks.
func updateDigest(tasks []precomputeTask, upd *hierarchy.Update) uint64 {
	h := fnv.New64a()
	var b [9]byte
	for _, t := range tasks {
		b[0] = 0
		if t.hub {
			b[0] = 1
		}
		binary.LittleEndian.PutUint32(b[1:], uint32(t.u))
		h.Write(b[:5])
	}
	for _, x := range upd.Promoted {
		b[0] = 2
		binary.LittleEndian.PutUint32(b[1:], uint32(x))
		binary.LittleEndian.PutUint32(b[5:], uint32(upd.H.DealRank(x)))
		h.Write(b[:])
	}
	return h.Sum64()
}

// nextHistory is the batch history of the snapshot a batch that
// changes an edge leaves: FNV-64 over the previous history, then the
// batch's Digest, Inserted and Deleted.
func nextHistory(prev uint64, info *UpdateInfo) uint64 {
	h := fnv.New64a()
	var b [32]byte
	binary.LittleEndian.PutUint64(b[:], prev)
	binary.LittleEndian.PutUint64(b[8:], info.Digest)
	binary.LittleEndian.PutUint64(b[16:], uint64(info.Inserted))
	binary.LittleEndian.PutUint64(b[24:], uint64(info.Deleted))
	h.Write(b[:])
	return h.Sum64()
}

// storeVectors counts the vectors a from-scratch pre-computation would
// produce for this store.
func (s *Store) storeVectors() int {
	return 2*s.HubPartial.Len() + s.LeafPPV.Len()
}

// LiveStore publishes a Store behind an atomic pointer and serializes
// updates against it. Readers call Store() and use the snapshot for as
// long as they like — a published snapshot is immutable. Writers call
// ApplyUpdates; each batch recomputes only dirty partitions and swaps
// the pointer once the new snapshot is complete.
type LiveStore struct {
	mu  sync.Mutex // serializes ApplyUpdates (batch ordering)
	cur atomic.Pointer[Store]
}

// NewLiveStore wraps an initial snapshot.
func NewLiveStore(s *Store) *LiveStore {
	l := &LiveStore{}
	l.cur.Store(s)
	return l
}

// Store returns the current snapshot.
func (l *LiveStore) Store() *Store { return l.cur.Load() }

// Narrow publishes slice i of n of the current snapshot in its place
// (see Split): tables holding copies of the slice's vectors alone, so
// that the whole store it replaces, arenas and all, becomes garbage
// once no reader holds it, and later batches recompute only that slice.
// Narrowing a store that already holds slice i of n is a no-op; any
// other shard-local store cannot be narrowed.
func (l *LiveStore) Narrow(i, n int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	cur := l.cur.Load()
	if o := cur.own; o != nil {
		if o.index == i && o.total == n {
			return nil
		}
		return fmt.Errorf("core: live store holds shard %d of %d, not %d of %d", o.index, o.total, i, n)
	}
	if err := checkShard(i, n); err != nil {
		return err
	}
	l.cur.Store(cur.narrow(newOwner(i, n, cur.H.G.NumNodes(), treeHubs(cur.H))))
	return nil
}

// ApplyUpdates applies one batch and publishes the resulting snapshot.
// A batch that fails, whether rejected up front (bad delta) or in the
// recompute, publishes nothing: the current snapshot and its graph stay
// exactly as they were, and the same batch can be applied again.
func (l *LiveStore) ApplyUpdates(d graph.Delta, workers int) (*UpdateInfo, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ns, info, err := l.cur.Load().ApplyUpdates(d, workers)
	if err != nil {
		return nil, err
	}
	l.cur.Store(ns)
	return info, nil
}

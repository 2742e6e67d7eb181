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
// (see internal/hierarchy's dirty-set semantics). ApplyUpdates applies
// a batch to the shared root graph, repairs the hierarchy (hub
// promotion for separator-crossing inserts), and recomputes ONLY the
// dirty partials, skeletons, and leaf PPVs — the rest of the store is
// shared structurally with the previous snapshot. LiveStore publishes
// the result with an atomic pointer swap so in-flight queries keep
// serving the old snapshot; a snapshot never changes once built.
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
	// DirtyNodes is the number of tree nodes whose virtual subgraph was
	// re-extracted.
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
	// batch reports the same digest.
	Digest uint64
	// Pushes is the total number of residual pops the recompute kernels
	// performed; DenseFallbacks counts vectors drained by the dense
	// sweep (see PrecomputeInfo).
	Pushes, DenseFallbacks int64
	// Wall is the end-to-end update time.
	Wall time.Duration
}

// ApplyUpdates applies an edge-delta batch and returns a NEW store in
// which only the dirty partitions were recomputed — for a shard-local
// store, only their vectors in its slice, and the new store holds the
// same slice. The receiver remains a valid read snapshot (its maps and
// hierarchy are never mutated), but it is retired as a base for further
// updates: the root graph object is shared and has advanced, so
// subsequent batches must be applied to the returned store. LiveStore enforces that ordering; use it unless you
// are managing publication yourself.
//
// Concurrency: queries on any snapshot (old or new) may run throughout —
// the serving path reads only pre-computed vectors and the hierarchy
// index, never the root graph's adjacency. Algorithms that traverse the
// root graph (power iteration, Monte Carlo, experiments) must not
// overlap an ApplyUpdates call.
func (s *Store) ApplyUpdates(d graph.Delta, workers int) (*Store, *UpdateInfo, error) {
	start := time.Now()
	upd, err := s.H.ApplyDelta(d)
	if err != nil {
		return nil, nil, fmt.Errorf("core: plan update: %w", err)
	}
	ins, del, err := s.H.G.ApplyDelta(d)
	if err != nil {
		return nil, nil, fmt.Errorf("core: apply delta: %w", err)
	}
	info := &UpdateInfo{Inserted: ins, Deleted: del}
	if ins == 0 && del == 0 {
		info.Digest = updateDigest(nil, upd)
		info.StoreVectors = s.storeVectors()
		info.Wall = time.Since(start)
		return s, info, nil
	}
	upd.RefreshSubgraphs()

	// Start from a structural clone: the maps are fresh (so the old
	// snapshot is never written to), the immutable packed vectors are
	// shared, and the clean partitions keep their entries untouched.
	ns := s.Clone()
	ns.H = upd.H
	if o := s.own; o != nil {
		ns.own = &owner{index: o.index, total: o.total, h: upd.H}
	}
	for _, x := range upd.Promoted {
		// A promoted node's old leaf PPV is stale; its new hub vectors
		// are produced by the dirty-node recompute below.
		delete(ns.LeafPPV, x)
	}

	var tasks []precomputeTask
	for _, n := range upd.Dirty {
		tasks = append(tasks, nodeTasks(upd.H, n)...)
	}
	info.Digest = updateDigest(tasks, upd)
	tasks = slices.DeleteFunc(tasks, func(t precomputeTask) bool {
		if t.hub {
			return !ns.own.hub(t.u)
		}
		return !ns.own.leaf(t.u)
	})
	for _, t := range tasks {
		t.node.Sub.G.BuildReverse()
	}
	ri, err := ns.runTasks(tasks, workers)
	if err != nil {
		// The shared root graph has already advanced, so the receiver
		// can keep SERVING its snapshot but cannot absorb this batch
		// again — a replay would be effective-filtered to a no-op
		// against the mutated graph. The caller must rebuild; LiveStore
		// poisons itself so later batches fail loudly instead.
		return nil, nil, fmt.Errorf("core: recompute after delta failed (store diverged from graph — rebuild required): %w", err)
	}
	for _, t := range tasks {
		info.Recomputed += t.Vectors()
	}
	info.Pushes = ri.kstats.Pushes
	info.DenseFallbacks = ri.kstats.DenseFallbacks
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

// EmptyBatchDigest is the UpdateInfo.Digest of a batch with no edge
// operations: it dirties no vector and promotes no hub.
var EmptyBatchDigest = updateDigest(nil, &hierarchy.Update{})

// storeVectors counts the vectors a from-scratch pre-computation would
// produce for this store.
func (s *Store) storeVectors() int {
	return 2*len(s.HubPartial) + len(s.LeafPPV)
}

// LiveStore publishes a Store behind an atomic pointer and serializes
// updates against it. Readers call Store() and use the snapshot for as
// long as they like — a published snapshot is immutable. Writers call
// ApplyUpdates; each batch recomputes only dirty partitions and swaps
// the pointer once the new snapshot is complete.
type LiveStore struct {
	mu     sync.Mutex // serializes ApplyUpdates (batch ordering)
	broken error      // set when a batch died after mutating the graph
	cur    atomic.Pointer[Store]
}

// NewLiveStore wraps an initial snapshot. The store's root graph must
// not be mutated except through this LiveStore afterwards.
func NewLiveStore(s *Store) *LiveStore {
	l := &LiveStore{}
	l.cur.Store(s)
	return l
}

// Store returns the current snapshot.
func (l *LiveStore) Store() *Store { return l.cur.Load() }

// Narrow publishes slice i of n of the current snapshot in its place
// (see Split), so that the whole store it replaces becomes garbage once
// no reader holds it, and later batches recompute only that slice.
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
	l.cur.Store(cur.narrow(&owner{index: i, total: n, h: cur.H}))
	return nil
}

// ApplyUpdates applies one batch and publishes the resulting snapshot.
//
// Failure semantics: a batch rejected up front (bad delta) leaves the
// pipeline fully usable. A batch that fails AFTER mutating the shared
// graph (recompute error) leaves the current snapshot serving but
// poisons the pipeline — the graph and the vectors have diverged, and
// since deltas are effectiveness-filtered a replay would silently
// no-op. Every subsequent ApplyUpdates then fails with the original
// error; rebuild the store from the graph to recover.
func (l *LiveStore) ApplyUpdates(d graph.Delta, workers int) (*UpdateInfo, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return nil, fmt.Errorf("core: live store is poisoned by an earlier failed batch: %w", l.broken)
	}
	cur := l.cur.Load()
	before := cur.H.G.Epoch()
	ns, info, err := cur.ApplyUpdates(d, workers)
	if err != nil {
		if cur.H.G.Epoch() != before {
			l.broken = err
		}
		return nil, err
	}
	l.cur.Store(ns)
	return info, nil
}

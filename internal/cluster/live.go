package cluster

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"exactppr/internal/core"
	"exactppr/internal/graph"
)

// LiveShard is a Machine over one slice of an updatable store. It holds
// only its own slice: NewLiveShard narrows the LiveStore to it, and
// each batch recomputes only the slice's dirty vectors (stable deal
// ranks keep the slice the same across batches) before the LiveStore
// publishes the new snapshot. Every query reads the snapshot once, so it
// is answered against one batch boundary. It is the worker-side Updater
// for `pprserve -updates`.
type LiveShard struct {
	live *core.LiveStore
}

// NewLiveShard returns the machine serving shard index of total over
// the given live store, which it narrows to that slice (see
// core.LiveStore.Narrow): once the caller drops its own references, the
// whole store it started from is garbage. A store loaded with
// core.LoadShard(path, index, total) is already narrow.
func NewLiveShard(live *core.LiveStore, index, total int) (*LiveShard, error) {
	if err := live.Narrow(index, total); err != nil {
		return nil, err
	}
	return &LiveShard{live: live}, nil
}

// Shard returns the currently served slice snapshot.
func (m *LiveShard) Shard() *core.Store { return m.live.Store() }

// QueryShare implements Machine.
func (m *LiveShard) QueryShare(ctx context.Context, u int32) ([]byte, time.Duration, error) {
	return (&LocalMachine{Backend: m.live.Store()}).QueryShare(ctx, u)
}

// QuerySetShare implements Machine.
func (m *LiveShard) QuerySetShare(ctx context.Context, p core.Preference) ([]byte, time.Duration, error) {
	return (&LocalMachine{Backend: m.live.Store()}).QuerySetShare(ctx, p)
}

// backend implements backedMachine: the current snapshot.
func (m *LiveShard) backend() PackedQuerier { return m.live.Store() }

// ApplyUpdates implements Updater. The batch recompute runs to
// completion once started; ctx only gates the start. Recomputed counts
// this slice's vectors; Epoch and History let the coordinator check
// that every worker holds the same snapshot after the batch.
func (m *LiveShard) ApplyUpdates(ctx context.Context, d graph.Delta) (UpdateStats, error) {
	if err := ctx.Err(); err != nil {
		return UpdateStats{}, err
	}
	start := time.Now()
	info, err := m.live.ApplyUpdates(d, 0)
	if err != nil {
		return UpdateStats{}, err
	}
	return updateStats(info, start), nil
}

func updateStats(info *core.UpdateInfo, start time.Time) UpdateStats {
	return UpdateStats{
		Inserted:   int64(info.Inserted),
		Deleted:    int64(info.Deleted),
		Recomputed: int64(info.Recomputed),
		Digest:     info.Digest,
		Epoch:      info.Epoch,
		History:    info.History,
		Wall:       time.Since(start),
	}
}

// LiveLocalCluster is NewLocalCluster over an updatable store: n
// in-process machines share ONE whole LiveStore, and ApplyUpdates
// applies each batch exactly once before re-splitting it into every
// machine's slice. It backs the single-host `pprserve -store … -http …
// -updates` gateway.
//
// Unlike a multi-host cluster, queries here are snapshot-atomic across
// machines: each batch publishes a whole new Coordinator (NewLocalCluster
// over the new snapshot) behind one atomic pointer, and a query loads
// that pointer once, so no query ever sums pre-batch and post-batch
// shares. The dirty-partition recompute and the re-split run while
// queries keep flowing against the old Coordinator; nothing blocks them.
type LiveLocalCluster struct {
	coord atomic.Pointer[Coordinator]
	live  *core.LiveStore
	mu    sync.Mutex // serializes ApplyUpdates callers
}

// NewLiveLocalCluster shards s across n updatable in-process machines.
func NewLiveLocalCluster(s *core.Store, n int) (*LiveLocalCluster, error) {
	coord, err := NewLocalCluster(s, n)
	if err != nil {
		return nil, err
	}
	c := &LiveLocalCluster{live: core.NewLiveStore(s)}
	c.coord.Store(coord)
	return c, nil
}

// Store returns the current snapshot (for stats and direct reads).
func (c *LiveLocalCluster) Store() *core.Store { return c.live.Store() }

// NumMachines returns the cluster size.
func (c *LiveLocalCluster) NumMachines() int { return c.coord.Load().NumMachines() }

// Query runs one exact PPV query against the current batch's snapshot.
func (c *LiveLocalCluster) Query(u int32) (*QueryStats, error) {
	return c.coord.Load().Query(u)
}

// QueryCtx is Query with per-query cancellation.
func (c *LiveLocalCluster) QueryCtx(ctx context.Context, u int32) (*QueryStats, error) {
	return c.coord.Load().QueryCtx(ctx, u)
}

// QuerySet runs a preference-set query against the current snapshot.
func (c *LiveLocalCluster) QuerySet(p core.Preference) (*QueryStats, error) {
	return c.coord.Load().QuerySet(p)
}

// QuerySetCtx is QuerySet with per-query cancellation.
func (c *LiveLocalCluster) QuerySetCtx(ctx context.Context, p core.Preference) (*QueryStats, error) {
	return c.coord.Load().QuerySetCtx(ctx, p)
}

// QuerySequential is Coordinator.QuerySequential against the current
// snapshot.
func (c *LiveLocalCluster) QuerySequential(u int32) (*QueryStats, error) {
	return c.coord.Load().QuerySequential(u)
}

// SupportsUpdates reports true: the cluster applies batches itself, not
// through its machines.
func (c *LiveLocalCluster) SupportsUpdates() bool { return true }

// ApplyUpdates applies the batch once to the shared store and publishes
// a Coordinator over the new snapshot's slices. It does not fan the
// delta out to the machines: one batch over the whole store, split
// afresh, swaps every machine's slice behind one pointer.
func (c *LiveLocalCluster) ApplyUpdates(ctx context.Context, d graph.Delta) (UpdateStats, error) {
	if err := ctx.Err(); err != nil {
		return UpdateStats{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	start := time.Now()
	info, err := c.live.ApplyUpdates(d, 0)
	if err != nil {
		return UpdateStats{}, err
	}
	if info.Inserted+info.Deleted > 0 {
		coord, err := NewLocalCluster(c.live.Store(), c.NumMachines())
		if err != nil {
			return UpdateStats{}, err
		}
		c.coord.Store(coord)
	}
	return updateStats(info, start), nil
}

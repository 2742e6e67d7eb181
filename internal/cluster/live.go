package cluster

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"exactppr/internal/core"
	"exactppr/internal/graph"
)

// shardSlot is an in-process Machine over a swappable slice snapshot:
// every query reads the current slice through one atomic load, so it is
// answered entirely against one batch boundary.
type shardSlot struct {
	shard atomic.Pointer[core.Store]
}

// QueryShare implements Machine.
func (m *shardSlot) QueryShare(ctx context.Context, u int32) ([]byte, time.Duration, error) {
	return (&LocalMachine{Backend: m.shard.Load()}).QueryShare(ctx, u)
}

// QuerySetShare implements Machine.
func (m *shardSlot) QuerySetShare(ctx context.Context, p core.Preference) ([]byte, time.Duration, error) {
	return (&LocalMachine{Backend: m.shard.Load()}).QuerySetShare(ctx, p)
}

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

// ApplyUpdates implements Updater. The batch recompute runs to
// completion once started; ctx only gates the start. Recomputed counts
// this slice's vectors; Digest lets the coordinator check that every
// worker saw the same dirty set.
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
// machines: a query holds a read lock over its whole fan-out, and the
// batch's shard swap takes the write lock, so no query ever sums
// pre-batch and post-batch shares. The dirty-partition recompute and
// the re-split run BEFORE the write lock is taken — queries are only
// excluded for the duration of n pointer swaps.
type LiveLocalCluster struct {
	*Coordinator
	live     *core.LiveStore
	mu       sync.Mutex   // serializes ApplyUpdates callers
	rw       sync.RWMutex // queries share it; the shard swap excludes them
	machines []*shardSlot
}

// NewLiveLocalCluster shards s across n updatable in-process machines.
func NewLiveLocalCluster(s *core.Store, n int) (*LiveLocalCluster, error) {
	shards, err := core.Split(s, n)
	if err != nil {
		return nil, err
	}
	c := &LiveLocalCluster{live: core.NewLiveStore(s)}
	machines := make([]Machine, n)
	for i, sh := range shards {
		m := &shardSlot{}
		m.shard.Store(sh)
		c.machines = append(c.machines, m)
		machines[i] = m
	}
	coord, err := NewCoordinator(machines...)
	if err != nil {
		return nil, err
	}
	c.Coordinator = coord
	return c, nil
}

// Store returns the current snapshot (for stats and direct reads).
func (c *LiveLocalCluster) Store() *core.Store { return c.live.Store() }

// QueryCtx shadows the embedded Coordinator's to hold the snapshot read
// lock across the whole fan-out (see the type comment).
func (c *LiveLocalCluster) QueryCtx(ctx context.Context, u int32) (*QueryStats, error) {
	c.rw.RLock()
	defer c.rw.RUnlock()
	return c.Coordinator.QueryCtx(ctx, u)
}

// QuerySetCtx shadows the embedded Coordinator's; see QueryCtx.
func (c *LiveLocalCluster) QuerySetCtx(ctx context.Context, p core.Preference) (*QueryStats, error) {
	c.rw.RLock()
	defer c.rw.RUnlock()
	return c.Coordinator.QuerySetCtx(ctx, p)
}

// SupportsUpdates shadows the embedded Coordinator's probe: the cluster
// applies batches itself, not through its machines.
func (c *LiveLocalCluster) SupportsUpdates() bool { return true }

// ApplyUpdates applies the batch once to the shared store and swaps
// every machine's shard. It deliberately shadows the embedded
// Coordinator's fan-out: fanning a shared-store delta to n machines
// would apply it n times.
func (c *LiveLocalCluster) ApplyUpdates(ctx context.Context, d graph.Delta) (UpdateStats, error) {
	if err := ctx.Err(); err != nil {
		return UpdateStats{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	start := time.Now()
	// The expensive part — dirty-partition recompute — runs while
	// queries keep flowing against the old snapshot.
	info, err := c.live.ApplyUpdates(d, 0)
	if err != nil {
		return UpdateStats{}, err
	}
	if info.Inserted+info.Deleted > 0 {
		shards, err := core.Split(c.live.Store(), len(c.machines))
		if err != nil {
			return UpdateStats{}, err
		}
		// Swap under the write lock: in-flight queries drain on the old
		// shards, then every machine flips to the new batch at once.
		c.rw.Lock()
		for i, m := range c.machines {
			m.shard.Store(shards[i])
		}
		c.rw.Unlock()
	}
	return updateStats(info, start), nil
}

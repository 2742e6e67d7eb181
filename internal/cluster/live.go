package cluster

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"exactppr/internal/core"
	"exactppr/internal/graph"
)

// LiveShard is a Machine over one shard of an updatable store. Queries
// read the current shard snapshot through one atomic load; ApplyUpdates
// advances the underlying LiveStore (dirty-partition recompute) and
// swaps the shard pointer, so every query is answered entirely against
// one batch boundary. It is the worker-side Updater for `pprserve
// -updates`.
type LiveShard struct {
	live         *core.LiveStore
	index, total int

	mu    sync.Mutex // serializes ApplyUpdates + shard refresh
	shard atomic.Pointer[core.Shard]
}

// NewLiveShard returns the machine serving shard index of total over
// the given live store.
func NewLiveShard(live *core.LiveStore, index, total int) (*LiveShard, error) {
	ls := &LiveShard{live: live, index: index, total: total}
	if err := ls.refresh(live.Store()); err != nil {
		return nil, err
	}
	return ls, nil
}

// Shard returns the currently served shard snapshot.
func (m *LiveShard) Shard() *core.Shard { return m.shard.Load() }

// refresh re-splits s and installs this machine's slice. Split is
// deterministic in the hierarchy, so every worker refreshing from the
// same batch sequence owns the same slice of the same store.
func (m *LiveShard) refresh(s *core.Store) error {
	shards, err := core.Split(s, m.total)
	if err != nil {
		return err
	}
	m.shard.Store(shards[m.index])
	return nil
}

// QueryShare implements Machine.
func (m *LiveShard) QueryShare(ctx context.Context, u int32) ([]byte, time.Duration, error) {
	return (&LocalMachine{Backend: m.shard.Load()}).QueryShare(ctx, u)
}

// QuerySetShare implements Machine.
func (m *LiveShard) QuerySetShare(ctx context.Context, p core.Preference) ([]byte, time.Duration, error) {
	return (&LocalMachine{Backend: m.shard.Load()}).QuerySetShare(ctx, p)
}

// ApplyUpdates implements Updater. The batch recompute runs to
// completion once started; ctx only gates the start.
func (m *LiveShard) ApplyUpdates(ctx context.Context, d graph.Delta) (UpdateStats, error) {
	if err := ctx.Err(); err != nil {
		return UpdateStats{}, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	start := time.Now()
	info, err := m.live.ApplyUpdates(d, 0)
	if err != nil {
		return UpdateStats{}, err
	}
	if info.Inserted+info.Deleted > 0 { // no-op batches (capability probes) skip the re-split
		if err := m.refresh(m.live.Store()); err != nil {
			return UpdateStats{}, err
		}
	}
	return UpdateStats{
		Inserted:   int64(info.Inserted),
		Deleted:    int64(info.Deleted),
		Recomputed: int64(info.Recomputed),
		Wall:       time.Since(start),
	}, nil
}

// LiveLocalCluster is NewLocalCluster over an updatable store: n
// in-process machines share ONE LiveStore, and ApplyUpdates applies
// each batch exactly once before refreshing every machine's shard. It
// backs the single-host `pprserve -store … -http … -updates` gateway.
//
// Unlike a multi-host cluster, queries here are snapshot-atomic across
// machines: a query holds a read lock over its whole fan-out, and the
// batch's shard swap takes the write lock, so no query ever sums
// pre-batch and post-batch shares. The dirty-partition recompute runs
// BEFORE the write lock is taken — queries are only excluded for the
// duration of n pointer swaps.
type LiveLocalCluster struct {
	*Coordinator
	live     *core.LiveStore
	mu       sync.Mutex   // serializes ApplyUpdates callers
	rw       sync.RWMutex // queries share it; the shard swap excludes them
	machines []*LiveShard
}

// NewLiveLocalCluster shards s across n updatable in-process machines.
func NewLiveLocalCluster(s *core.Store, n int) (*LiveLocalCluster, error) {
	live := core.NewLiveStore(s)
	c := &LiveLocalCluster{live: live}
	machines := make([]Machine, n)
	for i := 0; i < n; i++ {
		m, err := NewLiveShard(live, i, n)
		if err != nil {
			return nil, err
		}
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
	return UpdateStats{
		Inserted:   int64(info.Inserted),
		Deleted:    int64(info.Deleted),
		Recomputed: int64(info.Recomputed),
		Wall:       time.Since(start),
	}, nil
}

// Package cluster implements the paper's coordinator-based share-nothing
// platform (§3.1, Figure 8): n machines each hold one shard of the
// pre-computation; a query is broadcast, every machine answers with ONE
// sparse vector, and the coordinator sums them. That single round trip
// per machine is the paper's headline communication property, and this
// package accounts the bytes of every response so the communication-cost
// experiments (Figures 13, 22, 28) measure real encoded payloads.
//
// The serving layer is fully concurrent: the one-round protocol is
// embarrassingly parallel across queries, so the TCP transport
// multiplexes many in-flight queries over one connection (request-id
// demux, see mux.go), workers execute frames on a bounded goroutine pool
// per connection (tcp.go), and the Coordinator is safe for concurrent
// Query/QuerySet calls with per-query context cancellation. An
// HTTP/JSON gateway (gateway.go) exposes the whole thing to ordinary web
// clients. The serving limits are fixed constants, not settings; the
// gateway's per-query Timeout is the one knob.
//
// Two transports are provided: in-process machines and TCP. A worker
// process runs a Server; the coordinator reaches it through a Pool
// (DialPool), the one TCP client, which re-dials after a worker
// restart. Both transports speak through the Machine interface, so the
// Coordinator is transport-agnostic. Every in-process machine is one
// LocalMachine body over a core.Store or core.DiskStore that drains
// packed shares: a store holding one machine's slice answers that
// slice's share, a whole store the whole PPV. LiveShard (the updatable
// worker) delegates to it, so every backend encodes its share the same
// way. Concurrent and
// sequential fan-outs (QuerySequential) likewise share one decode,
// byte-accounting, and merge step.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"exactppr/internal/core"
	"exactppr/internal/graph"
	"exactppr/internal/sparse"
)

// Machine answers PPV queries with this machine's additive share.
// Implementations must be safe for concurrent calls; a call must honor
// context cancellation at least on the transport level (an in-process
// machine may finish small computations instead of polling the context).
type Machine interface {
	// QueryShare returns the machine's share of the PPV of u, encoded in
	// the sparse wire format, plus the machine-local compute time.
	QueryShare(ctx context.Context, u int32) (payload []byte, compute time.Duration, err error)
	// QuerySetShare is the preference-set variant (PPV linearity, §2):
	// the machine's share of the weighted-set PPV, still one vector.
	QuerySetShare(ctx context.Context, p core.Preference) (payload []byte, compute time.Duration, err error)
}

// Updater applies edge-delta batches to a machine's live store.
// Machines are free not to implement it (a read-only worker); the
// coordinator refuses to start an update unless every machine does.
type Updater interface {
	// ApplyUpdates applies one batch atomically w.r.t. this machine's
	// queries: every query share is computed against either the
	// pre-batch or the post-batch snapshot, never a mix.
	ApplyUpdates(ctx context.Context, d graph.Delta) (UpdateStats, error)
}

// UpdateStats reports one applied edge-delta batch.
type UpdateStats struct {
	// Inserted/Deleted are the edge operations that changed the graph.
	Inserted, Deleted int64
	// Recomputed is the number of store vectors recomputed — the
	// dirty-partition work a full rebuild would have multiplied. A
	// worker reports the vectors of its own slice; the Coordinator
	// reports the sum over its machines, the cluster-wide total.
	Recomputed int64
	// Digest fingerprints the batch's dirty set and hub promotions over
	// the whole store (core.UpdateInfo.Digest): machines holding the
	// same store report the same digest for the same batch.
	Digest uint64
	// Wall is the end-to-end batch time observed by the caller.
	Wall time.Duration
}

// ShardMachine is an in-process Machine over one machine's slice of a
// store (core.Split, core.LoadShard), answering that slice's share.
//
// Deprecated: use LocalMachine{Backend: sh}. ShardMachine is kept only
// because the perfbench module still names it.
type ShardMachine struct {
	Shard *core.Store
}

// QueryShare implements Machine.
func (m *ShardMachine) QueryShare(ctx context.Context, u int32) ([]byte, time.Duration, error) {
	return (&LocalMachine{Backend: m.Shard}).QueryShare(ctx, u)
}

// QuerySetShare implements Machine for preference sets.
func (m *ShardMachine) QuerySetShare(ctx context.Context, p core.Preference) ([]byte, time.Duration, error) {
	return (&LocalMachine{Backend: m.Shard}).QuerySetShare(ctx, p)
}

// QueryStats reports one distributed query.
type QueryStats struct {
	// Result is the exact PPV in packed columnar form — the coordinator
	// produces it by merging the machines' sorted share streams, so no
	// map is ever built on the serving path. Call Result.Unpack() for a
	// mutable map Vector.
	Result sparse.Packed
	// BytesReceived is the total payload the coordinator received — the
	// paper's communication-cost metric.
	BytesReceived int64
	// MachineTime holds each machine's compute time; the paper reports
	// the maximum as the query runtime (§6.2.2).
	MachineTime []time.Duration
	// Wall is the coordinator's end-to-end time (fan-out + sum).
	Wall time.Duration
}

// MaxMachineTime returns the slowest machine's compute time.
func (qs *QueryStats) MaxMachineTime() time.Duration {
	var m time.Duration
	for _, d := range qs.MachineTime {
		if d > m {
			m = d
		}
	}
	return m
}

// Coordinator fans a query out to all machines once and sums the shares.
// It holds no per-query state, so any number of goroutines may call
// Query/QuerySet concurrently; throughput then scales with worker-side
// parallelism because the TCP transport multiplexes in-flight queries.
type Coordinator struct {
	machines []Machine
}

// NewCoordinator returns a coordinator over the given machines.
func NewCoordinator(machines ...Machine) (*Coordinator, error) {
	if len(machines) == 0 {
		return nil, fmt.Errorf("cluster: no machines")
	}
	return &Coordinator{machines: machines}, nil
}

// NumMachines returns the cluster size.
func (c *Coordinator) NumMachines() int { return len(c.machines) }

// SupportsUpdates reports whether every machine accepts edge-delta
// batches — the condition ApplyUpdates enforces. The gateway uses it to
// answer 501 for read-only clusters instead of tearing one mid-fan-out.
// Machines exposing their own probe (TCP transports send a no-op delta
// so the answer reflects the remote worker's -updates configuration,
// not just the client stub's method set) are asked; for in-process
// machines the interface check is exact.
func (c *Coordinator) SupportsUpdates() bool {
	for _, m := range c.machines {
		if probe, ok := m.(interface{ SupportsUpdates() bool }); ok {
			if !probe.SupportsUpdates() {
				return false
			}
			continue
		}
		if _, ok := m.(Updater); !ok {
			return false
		}
	}
	return true
}

// Query runs one exact PPV query: one request to each machine, one vector
// back from each, summed locally. Machines are called concurrently.
func (c *Coordinator) Query(u int32) (*QueryStats, error) {
	return c.QueryCtx(context.Background(), u)
}

// QueryCtx is Query with per-query cancellation: when ctx is done, the
// fan-out is abandoned (in-flight worker calls are cancelled) and the
// context error is returned.
func (c *Coordinator) QueryCtx(ctx context.Context, u int32) (*QueryStats, error) {
	return c.fanOut(ctx, func(ctx context.Context, m Machine) ([]byte, time.Duration, error) {
		return m.QueryShare(ctx, u)
	})
}

// QuerySet runs the one-round protocol for a preference node set: each
// machine folds its weighted-set share, the coordinator sums. Exactness
// follows from PPV linearity plus the shard decomposition.
func (c *Coordinator) QuerySet(p core.Preference) (*QueryStats, error) {
	return c.QuerySetCtx(context.Background(), p)
}

// QuerySetCtx is QuerySet with per-query cancellation.
func (c *Coordinator) QuerySetCtx(ctx context.Context, p core.Preference) (*QueryStats, error) {
	return c.fanOut(ctx, func(ctx context.Context, m Machine) ([]byte, time.Duration, error) {
		return m.QuerySetShare(ctx, p)
	})
}

// fanOut implements the one-round protocol: call every machine once,
// concurrently, and sum the decoded shares. The first failure cancels
// the remaining calls and is reported with its machine index, so a
// worker dying mid-flight surfaces as one clean error instead of a hang.
func (c *Coordinator) fanOut(ctx context.Context, call func(context.Context, Machine) ([]byte, time.Duration, error)) (*QueryStats, error) {
	start := time.Now()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	replies := make([]reply, len(c.machines))
	var wg sync.WaitGroup
	wg.Add(len(c.machines))
	for i, m := range c.machines {
		go func(i int, m Machine) {
			defer wg.Done()
			payload, compute, err := call(ctx, m)
			replies[i] = reply{payload, compute, err}
			if err != nil {
				cancel() // release the other machines early
			}
		}(i, m)
	}
	wg.Wait()
	return sumReplies(replies, start)
}

// reply is one machine's answer to one query.
type reply struct {
	payload []byte
	compute time.Duration
	err     error
}

// sumReplies finishes the one-round protocol for either fan-out: it
// reports the most informative machine error, or else decodes every
// share, accounts its bytes and compute time, and sums the shares.
func sumReplies(replies []reply, start time.Time) (*QueryStats, error) {
	// A machine failure beats the context cancellation it triggered on
	// its siblings.
	var firstErr error
	for i, rp := range replies {
		if rp.err != nil {
			err := fmt.Errorf("cluster: machine %d: %w", i, rp.err)
			if firstErr == nil || isCancel(firstErr) && !isCancel(err) {
				firstErr = err
			}
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	stats := &QueryStats{
		MachineTime: make([]time.Duration, len(replies)),
	}
	// "Sum the shares": every payload decodes straight into columnar
	// form, and the k sorted streams merge in one pass — no maps, no
	// per-entry hashing, however many machines answered.
	parts := make([]sparse.Packed, len(replies))
	for i, rp := range replies {
		v, err := sparse.DecodePacked(rp.payload)
		if err != nil {
			return nil, fmt.Errorf("cluster: machine %d payload: %w", i, err)
		}
		stats.BytesReceived += int64(len(rp.payload))
		stats.MachineTime[i] = rp.compute
		parts[i] = v
	}
	stats.Result = sparse.MergePacked(parts)
	stats.Wall = time.Since(start)
	return stats, nil
}

// ApplyUpdates fans an edge-delta batch out to every machine, which
// applies it to its own copy of the graph and tree and recomputes the
// dirty vectors of its own slice of the store. All machines must
// implement Updater or the call is refused before anything is sent.
//
// Agreement: every machine must report the same edge counts and the
// same Digest — the dirty set and hub promotions over the WHOLE store,
// which each machine derives before filtering to its slice — or the
// machines have diverged and the call fails. The Recomputed counts are
// per slice, so they are summed: the result is the cluster-wide total.
//
// Consistency: each machine swaps in its post-batch snapshot
// atomically, but the swaps are not coordinated across machines — a
// query overlapping ApplyUpdates may sum pre-batch shares from one
// machine with post-batch shares from another. Callers needing
// cross-machine batch atomicity must quiesce queries around the call;
// updates applied while no queries overlap are always exact. A partial
// failure is reported as an error and may leave machines on different
// batches — retry the batch (deltas are effective-filtered, so replays
// are idempotent) or rebuild.
func (c *Coordinator) ApplyUpdates(ctx context.Context, d graph.Delta) (UpdateStats, error) {
	start := time.Now()
	updaters := make([]Updater, len(c.machines))
	for i, m := range c.machines {
		u, ok := m.(Updater)
		if !ok {
			return UpdateStats{}, fmt.Errorf("cluster: machine %d does not support updates", i)
		}
		updaters[i] = u
	}
	type reply struct {
		stats UpdateStats
		err   error
	}
	replies := make([]reply, len(updaters))
	var wg sync.WaitGroup
	wg.Add(len(updaters))
	for i, u := range updaters {
		go func(i int, u Updater) {
			defer wg.Done()
			stats, err := u.ApplyUpdates(ctx, d)
			replies[i] = reply{stats, err}
		}(i, u)
	}
	wg.Wait()
	var out UpdateStats
	for i, rp := range replies {
		if rp.err != nil {
			return UpdateStats{}, fmt.Errorf("cluster: machine %d update: %w (cluster may be torn — retry the batch)", i, rp.err)
		}
		if i == 0 {
			out = rp.stats
			continue
		}
		if st := rp.stats; st.Digest != out.Digest || st.Inserted != out.Inserted || st.Deleted != out.Deleted {
			return UpdateStats{}, fmt.Errorf("cluster: machines disagree on recompute (machine 0: +%d −%d digest %016x; machine %d: +%d −%d digest %016x) — replicas have diverged",
				out.Inserted, out.Deleted, out.Digest, i, st.Inserted, st.Deleted, st.Digest)
		}
		out.Recomputed += rp.stats.Recomputed
	}
	out.Wall = time.Since(start)
	return out, nil
}

func isCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// QuerySequential runs the same one-round protocol but calls machines one
// after another. The result and byte accounting are identical to Query;
// per-machine compute times are unbiased because machines never compete
// for host cores. Experiments use MaxMachineTime() of a sequential run as
// the distributed query runtime (the paper reports "the maximum runtime
// across all machines", §6.2.2), which keeps the numbers meaningful even
// when the simulation host has fewer cores than simulated machines.
func (c *Coordinator) QuerySequential(u int32) (*QueryStats, error) {
	start := time.Now()
	replies := make([]reply, len(c.machines))
	for i, m := range c.machines {
		rp := &replies[i]
		if rp.payload, rp.compute, rp.err = m.QueryShare(context.Background(), u); rp.err != nil {
			break
		}
	}
	return sumReplies(replies, start)
}

// NewLocalCluster shards a store across n in-process machines and returns
// the coordinator — the standard benchmark setup.
func NewLocalCluster(s *core.Store, n int) (*Coordinator, error) {
	shards, err := core.Split(s, n)
	if err != nil {
		return nil, err
	}
	machines := make([]Machine, n)
	for i, sh := range shards {
		machines[i] = &LocalMachine{Backend: sh}
	}
	return NewCoordinator(machines...)
}

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
// multiplexes many in-flight queries over one connection per worker
// (request-id demux, see mux.go), workers hand frames to a bounded pool
// of long-lived handler goroutines per connection (tcp.go), and the
// Coordinator is safe for concurrent Query/QuerySet calls with
// per-query context cancellation. Every frame is one write and usually
// one buffered read. A query has one fan-out (Coordinator.fanOut) over
// either transport: the caller writes each TCP machine's request itself
// and calls each in-process machine on a goroutine of its own, then
// waits on one channel for every reply. An HTTP/JSON gateway
// (gateway.go) exposes the whole thing to ordinary web clients. The
// serving limits are fixed constants, not settings; the gateway's
// per-query Timeout is the one knob.
//
// Two transports are provided: in-process machines and TCP. A worker
// process runs a Server; the coordinator reaches it through a Pool
// (Dial), the one TCP client: one multiplexed connection, re-dialed
// after a worker restart. Both transports speak through the Machine
// interface, so the Coordinator is transport-agnostic. Every in-process
// machine is one LocalMachine body over a core.Store or core.DiskStore
// that drains packed shares: a store holding one machine's slice
// answers that slice's share, a whole store the whole PPV. LiveShard
// (the updatable worker) delegates to it, so every backend encodes its
// share the same way. The concurrent and sequential fan-outs
// (QuerySequential) share one decode, byte-accounting, and merge step.
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
//
// Having the method does not make a backend updatable: a Coordinator
// (and so a DiskCluster) always has it, and so does every Pool,
// whatever its worker's configuration. Ask SupportsUpdates() where a
// backend has it; a read-only backend's ApplyUpdates fails with an
// error wrapping ErrReadOnly.
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
// batches — the check ApplyUpdates runs before it sends a batch
// anywhere (see probeUpdates).
func (c *Coordinator) SupportsUpdates() bool {
	ctx, cancel := context.WithTimeout(context.Background(), dialTimeout)
	defer cancel()
	return c.probeUpdates(ctx) == nil
}

// probeUpdates checks that every machine takes edge-delta batches. It
// fails with ErrReadOnly for a read-only machine and with the probe's
// own error (say, a dead worker's) otherwise, tagged with the machine's
// index. An in-process machine takes batches iff it is an Updater. A
// TCP client has the method whatever its worker's configuration, so a
// machine that also has SupportsUpdates is asked: it is sent an empty
// batch, which an update-enabled worker acks without touching its
// store.
func (c *Coordinator) probeUpdates(ctx context.Context) error {
	for i, m := range c.machines {
		u, ok := m.(Updater)
		if !ok {
			return fmt.Errorf("cluster: machine %d: %w", i, ErrReadOnly)
		}
		if _, remote := m.(interface{ SupportsUpdates() bool }); !remote {
			continue
		}
		if _, err := u.ApplyUpdates(ctx, graph.Delta{}); err != nil {
			return fmt.Errorf("cluster: machine %d: %w", i, err)
		}
	}
	return nil
}

// Query runs one exact PPV query: one request to each machine, one vector
// back from each, summed locally. Machines are called concurrently.
func (c *Coordinator) Query(u int32) (*QueryStats, error) {
	return c.QueryCtx(context.Background(), u)
}

// QueryCtx is Query with per-query cancellation: when ctx is done, the
// fan-out is abandoned (in-flight worker calls are cancelled or their
// replies dropped) and the context error is returned.
func (c *Coordinator) QueryCtx(ctx context.Context, u int32) (*QueryStats, error) {
	return c.fanOut(ctx, &query{op: opQuery, u: u})
}

// QuerySet runs the one-round protocol for a preference node set: each
// machine folds its weighted-set share, the coordinator sums. Exactness
// follows from PPV linearity plus the shard decomposition.
func (c *Coordinator) QuerySet(p core.Preference) (*QueryStats, error) {
	return c.QuerySetCtx(context.Background(), p)
}

// QuerySetCtx is QuerySet with per-query cancellation.
func (c *Coordinator) QuerySetCtx(ctx context.Context, p core.Preference) (*QueryStats, error) {
	return c.fanOut(ctx, &query{op: opQuerySet, set: p})
}

// query is one query of a fan-out, in the form each machine takes: a
// Pool the wire frame, any other machine the node or set itself.
type query struct {
	op    byte // opQuery or opQuerySet
	u     int32
	set   core.Preference
	frame []byte // request id unset; encoded for the first Pool
}

// send starts m's share of q, whose reply arrives on done tagged with
// index. A Pool's frame is written from the caller's goroutine; any
// other machine is called on a goroutine of its own.
func (q *query) send(ctx context.Context, m Machine, index int, done chan<- reply) (wireCall, error) {
	if p, ok := m.(*Pool); ok {
		if q.frame == nil {
			if q.op == opQuery {
				q.frame = queryFrame(q.u)
			} else if frame, err := querySetFrame(q.set); err != nil {
				return wireCall{}, err
			} else {
				q.frame = frame
			}
		}
		return p.send(ctx, q.frame, index, done)
	}
	op, u, set := q.op, q.u, q.set
	go func() {
		rp := reply{index: index}
		if op == opQuery {
			rp.payload, rp.compute, rp.err = m.QueryShare(ctx, u)
		} else {
			rp.payload, rp.compute, rp.err = m.QuerySetShare(ctx, set)
		}
		done <- rp
	}()
	return wireCall{open: true}, nil
}

// fanOut implements the one-round protocol: send q to every machine,
// then take the replies from one channel until all are in or the first
// error arrives. On an error the replies still pending are abandoned
// (a Pool's reader drops them, a goroutine's lands in the buffered
// channel) and the error is the one sumReplies picks, tagged with the
// failing machine's index, so a worker dying mid-flight surfaces as one
// clean error instead of a hang.
func (c *Coordinator) fanOut(ctx context.Context, q *query) (*QueryStats, error) {
	start := time.Now()
	replies := make([]reply, len(c.machines))
	calls := make([]wireCall, len(c.machines))
	done := make(chan reply, len(c.machines))
	// abandon gives up on every reply still pending, recording err as
	// its reply.
	abandon := func(err error) (*QueryStats, error) {
		for i, call := range calls {
			if call.open {
				call.abandon()
				replies[i].err = err
			}
		}
		return sumReplies(replies, start)
	}
	for i, m := range c.machines {
		call, err := q.send(ctx, m, i, done)
		if err != nil {
			replies[i].err = err
			return abandon(context.Canceled)
		}
		calls[i] = call
	}
	for range c.machines {
		select {
		case rp := <-done:
			calls[rp.index] = wireCall{}
			replies[rp.index] = rp
			if rp.err != nil {
				return abandon(context.Canceled)
			}
		case <-ctx.Done():
			return abandon(ctx.Err())
		}
	}
	return sumReplies(replies, start)
}

// sumReplies finishes the one-round protocol for either fan-out
// (Coordinator.fanOut, QuerySequential): it reports the most
// informative machine error, or else decodes every share, accounts its
// bytes and compute time, and sums the shares.
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
// dirty vectors of its own slice of the store. Every machine is probed
// first (probeUpdates): if any is read-only the call fails with
// ErrReadOnly, and if a probe fails otherwise (a dead worker) with that
// error, before the batch is sent anywhere.
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
	if err := c.probeUpdates(ctx); err != nil {
		return UpdateStats{}, err
	}
	type reply struct {
		stats UpdateStats
		err   error
	}
	replies := make([]reply, len(c.machines))
	var wg sync.WaitGroup
	wg.Add(len(c.machines))
	for i, m := range c.machines {
		go func(i int, u Updater) {
			defer wg.Done()
			stats, err := u.ApplyUpdates(ctx, d)
			replies[i] = reply{stats, err}
		}(i, m.(Updater))
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

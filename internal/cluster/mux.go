package cluster

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"exactppr/internal/core"
	"exactppr/internal/graph"
)

// ErrMachineClosed reports a call on a Pool, or one of its connections,
// that has been closed locally (as opposed to a transport failure,
// which carries the underlying error).
var ErrMachineClosed = fmt.Errorf("cluster: machine closed")

// tcpMachine is one multiplexed TCP connection to a worker, the unit a
// Pool holds: any number of callers may have queries in flight
// concurrently; a single reader goroutine demuxes response frames back
// to the waiting caller by request id. When the connection dies, every
// in-flight call fails with the transport error — no call ever hangs on
// a dead worker — and the connection stays dead; the Pool re-dials.
type tcpMachine struct {
	conn net.Conn

	wmu sync.Mutex // serializes request frames

	mu      sync.Mutex
	pending map[uint64]chan muxReply
	nextID  uint64
	err     error         // terminal transport error, set once
	done    chan struct{} // closed when the reader loop exits
}

type muxReply struct {
	op      byte
	payload []byte
}

// dialTimeout bounds connection attempts (initial dials and pool
// re-dials) so an unreachable worker fails fast instead of hanging for
// the OS connect timeout.
const dialTimeout = 5 * time.Second

// writeTimeout bounds every frame write on both ends of the protocol. A
// peer that stops draining its socket (stalled, frozen, malicious) would
// otherwise block the writer under its mutex forever once the kernel
// buffer fills; hitting the deadline fails the write and tears the
// connection down instead.
const writeTimeout = 30 * time.Second

// dialMachine connects to a worker at addr and starts the demux loop.
func dialMachine(ctx context.Context, addr string) (*tcpMachine, error) {
	d := net.Dialer{Timeout: dialTimeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	t := &tcpMachine{
		conn:    conn,
		pending: make(map[uint64]chan muxReply),
		done:    make(chan struct{}),
	}
	go t.readLoop()
	return t, nil
}

// readLoop is the single reader: it demuxes every response frame to the
// caller registered under its request id. Responses for ids nobody is
// waiting on (caller gave up via context) are discarded.
func (t *tcpMachine) readLoop() {
	for {
		op, id, payload, err := readFrame(t.conn)
		if err != nil {
			t.fail(err)
			return
		}
		t.mu.Lock()
		ch := t.pending[id]
		delete(t.pending, id)
		t.mu.Unlock()
		if ch != nil {
			ch <- muxReply{op, payload} // buffered; never blocks the reader
		}
	}
}

// fail marks the machine broken, closes the socket (so the fd is never
// leaked, whichever side noticed first), and releases every waiting
// caller.
func (t *tcpMachine) fail(err error) {
	t.mu.Lock()
	if t.err == nil {
		t.err = err
		close(t.done)
		t.conn.Close()
	}
	clear(t.pending)
	t.mu.Unlock()
}

// Close shuts the connection down; in-flight calls fail promptly.
func (t *tcpMachine) Close() error {
	t.fail(ErrMachineClosed)
	return nil
}

// healthy reports whether the transport is still usable.
func (t *tcpMachine) healthy() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err == nil
}

// QueryShare implements Machine over the wire.
func (t *tcpMachine) QueryShare(ctx context.Context, u int32) ([]byte, time.Duration, error) {
	var req [4]byte
	binary.LittleEndian.PutUint32(req[:], uint32(u))
	return t.call(ctx, opQuery, req[:])
}

// ApplyUpdates implements Updater over the wire: the delta batch rides
// the same multiplexed connection as queries (opUpdate frame), so a
// long recompute on the worker never blocks pipelined query traffic.
func (t *tcpMachine) ApplyUpdates(ctx context.Context, d graph.Delta) (UpdateStats, error) {
	start := time.Now()
	ack, _, err := t.call(ctx, opUpdate, encodeDelta(d))
	if err != nil {
		return UpdateStats{}, err
	}
	stats, err := decodeUpdateStats(ack)
	if err != nil {
		return UpdateStats{}, err
	}
	stats.Wall = time.Since(start)
	return stats, nil
}

// QuerySetShare implements Machine for preference sets over the wire.
func (t *tcpMachine) QuerySetShare(ctx context.Context, p core.Preference) ([]byte, time.Duration, error) {
	// Mirror the in-process validation (core.Preference.normalized) so
	// both transports reject the same malformed sets.
	if err := p.CheckWeights(); err != nil {
		return nil, 0, err
	}
	return t.call(ctx, opQuerySet, encodePreference(p))
}

func (t *tcpMachine) call(ctx context.Context, op byte, req []byte) ([]byte, time.Duration, error) {
	ch := make(chan muxReply, 1)
	t.mu.Lock()
	if t.err != nil {
		err := t.err
		t.mu.Unlock()
		return nil, 0, err
	}
	id := t.nextID
	t.nextID++
	t.pending[id] = ch
	t.mu.Unlock()

	// The write deadline is deliberately NOT tightened to ctx's: an
	// aborted write leaves a partial frame that corrupts the stream, so
	// a single tight-deadline query must not tear down the shared
	// connection. A genuinely stalled peer still fails within
	// writeTimeout instead of blocking wmu forever.
	t.wmu.Lock()
	t.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	err := writeFrame(t.conn, op, id, req)
	t.wmu.Unlock()
	if err != nil {
		t.unregister(id)
		// A failed write means the transport is broken (and may have
		// emitted a partial frame): mark the machine unhealthy so pools
		// stop routing to it. Silent partitions with no write traffic
		// are caught by the dialer's default TCP keepalive instead.
		t.fail(err)
		return nil, 0, err
	}

	select {
	case r := <-ch:
		return decodeReply(r)
	case <-ctx.Done():
		// Abandon the request: the reader discards the late response.
		t.unregister(id)
		return nil, 0, ctx.Err()
	case <-t.done:
		// The transport died, but the response may have been delivered
		// just before: prefer it over the error.
		select {
		case r := <-ch:
			return decodeReply(r)
		default:
		}
		t.mu.Lock()
		err := t.err
		t.mu.Unlock()
		return nil, 0, err
	}
}

func (t *tcpMachine) unregister(id uint64) {
	t.mu.Lock()
	delete(t.pending, id)
	t.mu.Unlock()
}

func decodeReply(r muxReply) ([]byte, time.Duration, error) {
	switch r.op {
	case opShare:
		if len(r.payload) < 8 {
			return nil, 0, fmt.Errorf("cluster: short share frame")
		}
		compute := time.Duration(binary.LittleEndian.Uint64(r.payload))
		return r.payload[8:], compute, nil
	case opUpdateAck:
		return r.payload, 0, nil
	case opError:
		return nil, 0, decodeError(r.payload)
	default:
		return nil, 0, fmt.Errorf("cluster: unexpected opcode %d", r.op)
	}
}

// Pool is the TCP client: a Machine and Updater backed by a remote
// worker over n multiplexed connections, with calls spread round-robin.
// One connection already sustains many in-flight queries; more add
// socket-level parallelism (separate kernel buffers, separate reader
// goroutines) for coordinators driving very high concurrency at one
// worker. Broken connections are re-dialed lazily, so a worker restart
// heals without restarting the coordinator.
type Pool struct {
	addr    string
	next    atomic.Uint64
	healing atomic.Bool // one background re-dial at a time

	mu     sync.Mutex
	conns  []*tcpMachine
	closed bool
}

// DialPool opens n multiplexed connections to the worker at addr
// (n ≤ 0 means 1).
func DialPool(addr string, n int) (*Pool, error) {
	if n <= 0 {
		n = 1
	}
	p := &Pool{addr: addr, conns: make([]*tcpMachine, 0, n)}
	for i := 0; i < n; i++ {
		m, err := dialMachine(context.Background(), addr)
		if err != nil {
			p.Close()
			return nil, err
		}
		p.conns = append(p.conns, m)
	}
	return p, nil
}

// pick returns the next healthy connection. When a broken slot is hit it
// is re-dialed in place — outside the pool lock, under the caller's
// context plus a dial timeout, so a down worker neither serializes
// concurrent queries behind the mutex nor outlives the query deadline.
func (p *Pool) pick(ctx context.Context) (*tcpMachine, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrMachineClosed
	}
	start := p.next.Add(1)
	slot := -1
	var healthy *tcpMachine
	for i := 0; i < len(p.conns); i++ {
		s := int((start + uint64(i)) % uint64(len(p.conns)))
		if healthy == nil && p.conns[s].healthy() {
			healthy = p.conns[s]
		} else if slot < 0 && !p.conns[s].healthy() {
			slot = s
		}
	}
	p.mu.Unlock()
	if healthy != nil {
		if slot >= 0 {
			// Heal the broken slot in the background so a partially
			// degraded pool recovers its full parallelism.
			p.maybeHeal(slot)
		}
		return healthy, nil
	}

	m, err := dialMachine(ctx, p.addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: all %d pool connections to %s are down: %w", len(p.conns), p.addr, err)
	}
	if replaced := p.install(slot, m); replaced != nil {
		return replaced, nil
	}
	return nil, ErrMachineClosed
}

// install swaps a freshly dialed machine into a broken slot, closing the
// dead fd. Returns the machine now serving the slot (the new one, or a
// concurrent heal's) — nil only when the pool was closed meanwhile.
func (p *Pool) install(slot int, m *tcpMachine) *tcpMachine {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		m.Close()
		return nil
	}
	old := p.conns[slot]
	if old.healthy() {
		m.Close() // a concurrent pick already healed this slot
		return old
	}
	old.Close()
	p.conns[slot] = m
	return m
}

// maybeHeal re-dials one broken slot in the background, at most one
// heal in flight per pool to avoid dial storms.
func (p *Pool) maybeHeal(slot int) {
	if !p.healing.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer p.healing.Store(false)
		m, err := dialMachine(context.Background(), p.addr)
		if err != nil {
			return // worker still down; the next pick will retry
		}
		p.install(slot, m)
	}()
}

// QueryShare implements Machine.
func (p *Pool) QueryShare(ctx context.Context, u int32) ([]byte, time.Duration, error) {
	m, err := p.pick(ctx)
	if err != nil {
		return nil, 0, err
	}
	return m.QueryShare(ctx, u)
}

// QuerySetShare implements Machine.
func (p *Pool) QuerySetShare(ctx context.Context, pref core.Preference) ([]byte, time.Duration, error) {
	m, err := p.pick(ctx)
	if err != nil {
		return nil, 0, err
	}
	return m.QuerySetShare(ctx, pref)
}

// ApplyUpdates implements Updater: the batch is sent on one connection —
// the worker process behind every pooled connection is the same, so one
// delivery updates them all.
func (p *Pool) ApplyUpdates(ctx context.Context, d graph.Delta) (UpdateStats, error) {
	m, err := p.pick(ctx)
	if err != nil {
		return UpdateStats{}, err
	}
	return m.ApplyUpdates(ctx, d)
}

// SupportsUpdates probes the worker behind the pool with an empty delta
// batch — a no-op on an update-enabled worker, a clean "updates not
// enabled" error otherwise. Unlike the interface check (every Pool has
// the method), this reflects the worker's actual -updates
// configuration.
func (p *Pool) SupportsUpdates() bool {
	ctx, cancel := context.WithTimeout(context.Background(), dialTimeout)
	defer cancel()
	_, err := p.ApplyUpdates(ctx, graph.Delta{})
	return err == nil
}

// Close closes every connection in the pool and stops re-dialing.
func (p *Pool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	var first error
	for _, m := range p.conns {
		if err := m.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

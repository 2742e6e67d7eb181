package cluster

import (
	"bufio"
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
// concurrently. A call is two steps (send): register a request id and
// write the request as one frame from the caller's goroutine, then take
// the reply from the channel the caller named. A single reader
// goroutine demuxes reply frames to those channels by request id. When
// the connection dies, every pending caller receives the transport
// error on its channel — no call ever hangs on a dead worker — and the
// connection stays dead; the Pool re-dials.
type tcpMachine struct {
	conn   net.Conn
	w      frameWriter
	broken atomic.Bool // set once by fail; read lock-free by Pool.pick

	mu      sync.Mutex
	pending map[uint64]waiter
	nextID  uint64
	err     error // terminal transport error, set once
}

// waiter is where one pending request's reply goes: the caller's
// channel, tagged with the caller's slot (a fan-out's machine index).
type waiter struct {
	ch    chan<- muxReply
	index int
}

// muxReply is one reply frame, or the transport error that ended the
// connection before it arrived.
type muxReply struct {
	op      byte
	payload []byte
	err     error
	index   int
}

// wireCall is a request sent on a tcpMachine whose reply is pending.
type wireCall struct {
	t  *tcpMachine
	id uint64
}

// abandon unregisters the request; the reader drops its late reply.
func (c wireCall) abandon() {
	c.t.mu.Lock()
	delete(c.t.pending, c.id)
	c.t.mu.Unlock()
}

// wireMachine is a machine whose call splits in two, so that a fan-out
// can write every machine's request from the caller's goroutine and
// then wait on one channel (Coordinator.fanOutWire). *tcpMachine and
// *Pool implement it.
type wireMachine interface {
	// send sets frame's request id, writes it, and arranges for the
	// reply, or the transport error that ends the connection first, to
	// arrive on done tagged with index. done must have room for it: a
	// send never blocks the connection's reader. frame may be reused
	// once send returns.
	send(ctx context.Context, frame []byte, index int, done chan<- muxReply) (wireCall, error)
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
	return newTCPMachine(conn), nil
}

// newTCPMachine runs the client side of the protocol on conn.
func newTCPMachine(conn net.Conn) *tcpMachine {
	t := &tcpMachine{
		conn:    conn,
		w:       frameWriter{conn: conn},
		pending: make(map[uint64]waiter),
	}
	go t.readLoop()
	return t
}

// readLoop is the single reader: it demuxes every reply frame to the
// caller registered under its request id. Replies for ids nobody is
// waiting on (the caller gave up) are discarded.
func (t *tcpMachine) readLoop() {
	r := bufio.NewReaderSize(t.conn, readBufSize)
	for {
		op, id, payload, err := readFrame(r)
		if err != nil {
			t.fail(err)
			return
		}
		t.mu.Lock()
		w, ok := t.pending[id]
		delete(t.pending, id)
		t.mu.Unlock()
		if ok {
			w.ch <- muxReply{op: op, payload: payload, index: w.index}
		}
	}
}

// fail marks the machine broken, closes the socket (so the fd is never
// leaked, whichever side noticed first), and hands the terminal error
// to every pending caller.
func (t *tcpMachine) fail(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err == nil {
		t.err = err
		t.broken.Store(true)
		t.conn.Close()
	}
	for id, w := range t.pending {
		w.ch <- muxReply{err: t.err, index: w.index}
		delete(t.pending, id)
	}
}

// Close shuts the connection down; in-flight calls fail promptly.
func (t *tcpMachine) Close() error {
	t.fail(ErrMachineClosed)
	return nil
}

// healthy reports whether the transport is still usable.
func (t *tcpMachine) healthy() bool { return !t.broken.Load() }

// send implements wireMachine.
func (t *tcpMachine) send(_ context.Context, frame []byte, index int, done chan<- muxReply) (wireCall, error) {
	t.mu.Lock()
	if t.err != nil {
		err := t.err
		t.mu.Unlock()
		return wireCall{}, err
	}
	id := t.nextID
	t.nextID++
	t.pending[id] = waiter{done, index}
	t.mu.Unlock()

	// The write deadline is deliberately NOT tightened to ctx's: an
	// aborted write leaves a partial frame that corrupts the stream, so
	// a single tight-deadline query must not tear down the shared
	// connection. A genuinely stalled peer still fails within
	// writeTimeout instead of blocking the writer forever.
	binary.LittleEndian.PutUint64(frame[1:], id)
	c := wireCall{t, id}
	if err := t.w.write(frame); err != nil {
		c.abandon()
		// A failed write means the transport is broken (and may have
		// emitted a partial frame): mark the machine unhealthy so pools
		// stop routing to it. Silent partitions with no write traffic
		// are caught by the dialer's default TCP keepalive instead.
		t.fail(err)
		return wireCall{}, err
	}
	return c, nil
}

// QueryShare implements Machine over the wire.
func (t *tcpMachine) QueryShare(ctx context.Context, u int32) ([]byte, time.Duration, error) {
	return call(ctx, t, queryFrame(u))
}

// ApplyUpdates implements Updater over the wire: the delta batch rides
// the same multiplexed connection as queries (opUpdate frame), so a
// long recompute on the worker never blocks pipelined query traffic.
func (t *tcpMachine) ApplyUpdates(ctx context.Context, d graph.Delta) (UpdateStats, error) {
	return applyUpdates(ctx, t, d)
}

// QuerySetShare implements Machine for preference sets over the wire.
func (t *tcpMachine) QuerySetShare(ctx context.Context, p core.Preference) ([]byte, time.Duration, error) {
	frame, err := querySetFrame(p)
	if err != nil {
		return nil, 0, err
	}
	return call(ctx, t, frame)
}

// queryFrame is the opQuery request frame for u, request id unset.
func queryFrame(u int32) []byte {
	frame := newFrame(opQuery, 0, 4)
	binary.LittleEndian.PutUint32(frame[frameHeaderSize:], uint32(u))
	return frame
}

// querySetFrame is the opQuerySet request frame for p, request id
// unset. It mirrors the in-process validation
// (core.Preference.normalized) so both transports reject the same
// malformed sets.
func querySetFrame(p core.Preference) ([]byte, error) {
	if err := p.CheckWeights(); err != nil {
		return nil, err
	}
	return frameOf(opQuerySet, 0, encodePreference(p)), nil
}

// call sends one request frame on m and waits for its reply.
func call(ctx context.Context, m wireMachine, frame []byte) ([]byte, time.Duration, error) {
	done := make(chan muxReply, 1)
	c, err := m.send(ctx, frame, 0, done)
	if err != nil {
		return nil, 0, err
	}
	select {
	case r := <-done:
		return decodeReply(r)
	case <-ctx.Done():
		// Abandon the request: the reader discards the late response.
		c.abandon()
		return nil, 0, ctx.Err()
	}
}

// applyUpdates sends one edge-delta batch on m and decodes the ack.
func applyUpdates(ctx context.Context, m wireMachine, d graph.Delta) (UpdateStats, error) {
	start := time.Now()
	ack, _, err := call(ctx, m, frameOf(opUpdate, 0, encodeDelta(d)))
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

func decodeReply(r muxReply) ([]byte, time.Duration, error) {
	if r.err != nil {
		return nil, 0, r.err
	}
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

// send implements wireMachine on the next healthy connection.
func (p *Pool) send(ctx context.Context, frame []byte, index int, done chan<- muxReply) (wireCall, error) {
	m, err := p.pick(ctx)
	if err != nil {
		return wireCall{}, err
	}
	return m.send(ctx, frame, index, done)
}

// QueryShare implements Machine.
func (p *Pool) QueryShare(ctx context.Context, u int32) ([]byte, time.Duration, error) {
	return call(ctx, p, queryFrame(u))
}

// QuerySetShare implements Machine.
func (p *Pool) QuerySetShare(ctx context.Context, pref core.Preference) ([]byte, time.Duration, error) {
	frame, err := querySetFrame(pref)
	if err != nil {
		return nil, 0, err
	}
	return call(ctx, p, frame)
}

// ApplyUpdates implements Updater: the batch is sent on one connection —
// the worker process behind every pooled connection is the same, so one
// delivery updates them all.
func (p *Pool) ApplyUpdates(ctx context.Context, d graph.Delta) (UpdateStats, error) {
	return applyUpdates(ctx, p, d)
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

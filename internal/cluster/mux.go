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

// ErrMachineClosed reports a call on a Pool, or on its connection, that
// has been closed locally (as opposed to a transport failure, which
// carries the underlying error).
var ErrMachineClosed = fmt.Errorf("cluster: machine closed")

// tcpConn is the multiplexed TCP connection a Pool holds: any number of
// callers may have requests in flight on it concurrently. A call is two
// steps (send): register a request id and write the request as one
// frame from the caller's goroutine, then take the reply from the
// channel the caller named. A single reader goroutine demuxes reply
// frames to those channels by request id. When the connection dies,
// every pending caller receives the transport error on its channel — no
// call ever hangs on a dead worker — and the connection stays dead; the
// Pool re-dials.
type tcpConn struct {
	conn   net.Conn
	w      frameWriter
	broken atomic.Bool // set once by fail; read lock-free by Pool.send

	mu      sync.Mutex
	pending map[uint64]waiter
	nextID  uint64
	err     error // terminal transport error, set once
}

// waiter is where one pending request's reply goes: the caller's
// channel, tagged with the caller's slot (a fan-out's machine index).
type waiter struct {
	ch    chan<- reply
	index int
}

// reply is one machine's answer to one request, tagged with the
// machine's index in its fan-out.
type reply struct {
	index   int
	payload []byte
	compute time.Duration
	err     error
}

// wireCall is a request whose reply has not arrived yet. A Pool's reply
// is registered on connection t under id; with t nil, it comes from the
// goroutine running an in-process machine's call. The zero wireCall is
// no request.
type wireCall struct {
	t    *tcpConn
	id   uint64
	open bool
}

// abandon gives the request up; a connection's reader drops its late
// reply.
func (c wireCall) abandon() {
	if c.t == nil {
		return
	}
	c.t.mu.Lock()
	delete(c.t.pending, c.id)
	c.t.mu.Unlock()
}

// dialTimeout bounds connection attempts (initial dials and re-dials)
// so an unreachable worker fails fast instead of hanging for the OS
// connect timeout.
const dialTimeout = 5 * time.Second

// writeTimeout bounds every frame write on both ends of the protocol. A
// peer that stops draining its socket (stalled, frozen, malicious) would
// otherwise block the writer under its mutex forever once the kernel
// buffer fills; hitting the deadline fails the write and tears the
// connection down instead.
const writeTimeout = 30 * time.Second

// dialConn connects to a worker at addr and starts the demux loop.
func dialConn(ctx context.Context, addr string) (*tcpConn, error) {
	d := net.Dialer{Timeout: dialTimeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return startConn(conn), nil
}

// startConn runs the client side of the protocol on conn.
func startConn(conn net.Conn) *tcpConn {
	t := &tcpConn{
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
func (t *tcpConn) readLoop() {
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
			rp := reply{index: w.index}
			rp.payload, rp.compute, rp.err = decodeReply(op, payload)
			w.ch <- rp
		}
	}
}

// fail marks the connection broken, closes the socket (so the fd is
// never leaked, whichever side noticed first), and hands the terminal
// error to every pending caller.
func (t *tcpConn) fail(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err == nil {
		t.err = err
		t.broken.Store(true)
		t.conn.Close()
	}
	for id, w := range t.pending {
		w.ch <- reply{index: w.index, err: t.err}
		delete(t.pending, id)
	}
}

// Close shuts the connection down; in-flight calls fail promptly.
func (t *tcpConn) Close() error {
	t.fail(ErrMachineClosed)
	return nil
}

// send sets frame's request id, writes it, and arranges for the reply,
// or the transport error that ends the connection first, to arrive on
// done tagged with index. done must have room for it: a send never
// blocks the connection's reader. frame may be reused once send
// returns.
func (t *tcpConn) send(frame []byte, index int, done chan<- reply) (wireCall, error) {
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

	// The write deadline is deliberately NOT tightened to the caller's
	// context: an aborted write leaves a partial frame that corrupts the
	// stream, so a single tight-deadline query must not tear down the
	// shared connection. A genuinely stalled peer still fails within
	// writeTimeout instead of blocking the writer forever.
	binary.LittleEndian.PutUint64(frame[1:], id)
	c := wireCall{t, id, true}
	if err := t.w.write(frame); err != nil {
		c.abandon()
		// A failed write means the transport is broken (and may have
		// emitted a partial frame): mark the connection broken so the
		// Pool re-dials. Silent partitions with no write traffic are
		// caught by the dialer's default TCP keepalive instead.
		t.fail(err)
		return wireCall{}, err
	}
	return c, nil
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

// decodeReply parses one reply frame: a share with its compute time, an
// update ack, or a worker error.
func decodeReply(op byte, payload []byte) ([]byte, time.Duration, error) {
	switch op {
	case opShare:
		if len(payload) < 8 {
			return nil, 0, fmt.Errorf("cluster: short share frame")
		}
		compute := time.Duration(binary.LittleEndian.Uint64(payload))
		return payload[8:], compute, nil
	case opUpdateAck:
		return payload, 0, nil
	case opError:
		return nil, 0, decodeError(payload)
	default:
		return nil, 0, fmt.Errorf("cluster: unexpected opcode %d", op)
	}
}

// Pool is the TCP client: the Machine and Updater of one remote worker,
// over one multiplexed connection that any number of callers share. The
// first call after the connection breaks re-dials it, so a worker
// restart heals without restarting the coordinator.
type Pool struct {
	addr string
	conn atomic.Pointer[tcpConn]
	// dial is held by whoever re-dials or closes the pool: one dial at a
	// time, which a caller waits for only as long as its context allows.
	dial   chan struct{}
	closed bool // guarded by dial
}

// Dial connects to the worker at addr.
func Dial(addr string) (*Pool, error) {
	c, err := dialConn(context.Background(), addr)
	if err != nil {
		return nil, err
	}
	return newPool(addr, c), nil
}

// DialPool connects to the worker at addr; n is ignored.
//
// Deprecated: use Dial. A Pool holds one connection. DialPool is kept
// only because the perfbench module still names it.
func DialPool(addr string, n int) (*Pool, error) { return Dial(addr) }

func newPool(addr string, c *tcpConn) *Pool {
	p := &Pool{addr: addr, dial: make(chan struct{}, 1)}
	p.conn.Store(c)
	return p
}

// send writes frame on the pool's connection (see tcpConn.send),
// re-dialing it first if it has broken.
func (p *Pool) send(ctx context.Context, frame []byte, index int, done chan<- reply) (wireCall, error) {
	c := p.conn.Load()
	if c.broken.Load() {
		var err error
		if c, err = p.redial(ctx, c); err != nil {
			return wireCall{}, err
		}
	}
	return c.send(frame, index, done)
}

// redial replaces the broken connection dead, unless another caller has
// already replaced it. The dial runs under ctx and dialTimeout.
func (p *Pool) redial(ctx context.Context, dead *tcpConn) (*tcpConn, error) {
	select {
	case p.dial <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-p.dial }()
	if p.closed {
		return nil, ErrMachineClosed
	}
	if c := p.conn.Load(); c != dead {
		return c, nil
	}
	c, err := dialConn(ctx, p.addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: re-dial %s: %w", p.addr, err)
	}
	p.conn.Store(c)
	return c, nil
}

// call sends one request frame and waits for its reply.
func (p *Pool) call(ctx context.Context, frame []byte) ([]byte, time.Duration, error) {
	done := make(chan reply, 1)
	c, err := p.send(ctx, frame, 0, done)
	if err != nil {
		return nil, 0, err
	}
	select {
	case r := <-done:
		return r.payload, r.compute, r.err
	case <-ctx.Done():
		// Abandon the request: the reader discards the late response.
		c.abandon()
		return nil, 0, ctx.Err()
	}
}

// QueryShare implements Machine.
func (p *Pool) QueryShare(ctx context.Context, u int32) ([]byte, time.Duration, error) {
	return p.call(ctx, queryFrame(u))
}

// QuerySetShare implements Machine.
func (p *Pool) QuerySetShare(ctx context.Context, pref core.Preference) ([]byte, time.Duration, error) {
	frame, err := querySetFrame(pref)
	if err != nil {
		return nil, 0, err
	}
	return p.call(ctx, frame)
}

// ApplyUpdates implements Updater over the wire: the delta batch rides
// the same multiplexed connection as queries (opUpdate frame), so a long
// recompute on the worker never blocks pipelined query traffic.
func (p *Pool) ApplyUpdates(ctx context.Context, d graph.Delta) (UpdateStats, error) {
	start := time.Now()
	ack, _, err := p.call(ctx, frameOf(opUpdate, 0, encodeDelta(d)))
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

// SupportsUpdates probes the worker with an empty delta batch, which an
// update-enabled worker acks without touching its store and a read-only
// one refuses. Unlike the interface check (every Pool has the method),
// this reflects the worker's actual -updates configuration.
func (p *Pool) SupportsUpdates() bool {
	ctx, cancel := context.WithTimeout(context.Background(), dialTimeout)
	defer cancel()
	_, err := p.ApplyUpdates(ctx, graph.Delta{})
	return err == nil
}

// Close closes the connection and stops re-dialing.
func (p *Pool) Close() error {
	p.dial <- struct{}{}
	defer func() { <-p.dial }()
	p.closed = true
	return p.conn.Load().Close()
}

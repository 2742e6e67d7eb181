package cluster

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"exactppr/internal/core"
	"exactppr/internal/graph"
)

// The TCP wire protocol, deliberately minimal (stdlib only, no RPC
// framework). Every frame is a 1-byte opcode, an 8-byte little-endian
// request id, a 4-byte little-endian length, and the payload. The
// request id makes the protocol multiplexed: a client may pipeline any
// number of requests on one connection and the worker answers each with
// a frame carrying the same id, in whatever order queries finish.
//
//	opQuery     coordinator → worker   payload = int32 query node
//	opQuerySet  coordinator → worker   payload = int32 count, count ×
//	                                   (int32 node, float64 weight)
//	opShare     worker → coordinator   payload = sparse-encoded vector in
//	                                   the canonical (sorted by id) wire
//	                                   encoding + 8-byte compute-time (ns)
//	                                   prefix
//	opError     worker → coordinator   payload = 1-byte error class
//	                                   (errorClasses index; 0 =
//	                                   unclassified) + error text
//	opUpdate    coordinator → worker   payload = edge-delta batch:
//	                                   uint32 insert count, count ×
//	                                   (int32 u, int32 v), then the same
//	                                   for deletes
//	opUpdateAck worker → coordinator   payload = 4 × uint64: edges
//	                                   inserted, edges deleted, vectors
//	                                   recomputed (the worker's slice),
//	                                   batch digest
//
// Both ends build each frame, header and payload, in one buffer and send
// it with one Write, and both read through one readBufSize buffered
// reader per connection, so a frame usually costs one read syscall and
// a burst of small frames shares one.
//
// Share payloads are canonical: identical shares are byte-identical
// across repeated encodes, and the coordinator consumes them as sorted
// streams (see sparse.MergePacked) without rebuilding maps.
const (
	opQuery     byte = 1
	opShare     byte = 2
	opError     byte = 3
	opQuerySet  byte = 4
	opUpdate    byte = 5
	opUpdateAck byte = 6
)

const maxFrame = 1 << 28 // 256 MiB guard against corrupt lengths

const frameHeaderSize = 1 + 8 + 4

// readBufSize sizes the buffered reader in front of each connection,
// on both ends: large enough for a burst of query frames or a typical
// share reply, small beside a connection's kernel buffers.
const readBufSize = 16 << 10

// newFrame returns a whole frame of op and id with an n-byte payload,
// its header filled in; the caller writes the payload at
// frame[frameHeaderSize:].
func newFrame(op byte, id uint64, n int) []byte {
	frame := make([]byte, frameHeaderSize+n)
	frame[0] = op
	binary.LittleEndian.PutUint64(frame[1:], id)
	binary.LittleEndian.PutUint32(frame[9:], uint32(n))
	return frame
}

// frameOf returns the whole frame of op and id around payload.
func frameOf(op byte, id uint64, payload []byte) []byte {
	frame := newFrame(op, id, len(payload))
	copy(frame[frameHeaderSize:], payload)
	return frame
}

// frameWriter sends whole frames on a connection shared by concurrent
// writers.
type frameWriter struct {
	mu   sync.Mutex
	conn net.Conn
}

// write sends frame with one Write under the connection's lock. The
// deadline bounds it, so a peer that stops draining its socket fails
// the write instead of pinning every writer behind mu.
func (w *frameWriter) write(frame []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	_, err := w.conn.Write(frame)
	return err
}

// frameChunk is the largest payload readFrame allocates up front.
// Longer payloads grow as their bytes arrive, so a peer that announces
// a huge frame and sends nothing pins no memory.
const frameChunk = 1 << 20

func readFrame(r io.Reader) (op byte, id uint64, payload []byte, err error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	id = binary.LittleEndian.Uint64(hdr[1:])
	n := binary.LittleEndian.Uint32(hdr[9:])
	if n > maxFrame {
		return 0, 0, nil, fmt.Errorf("cluster: frame length %d exceeds limit", n)
	}
	if n <= frameChunk {
		payload = make([]byte, n)
		_, err = io.ReadFull(r, payload)
	} else if payload, err = io.ReadAll(io.LimitReader(r, int64(n))); err == nil && len(payload) < int(n) {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return 0, 0, nil, err
	}
	return hdr[0], id, payload, nil
}

// ErrReadOnly reports an edge-delta batch sent to a machine that takes
// no updates: an in-process read-only slice, or a worker started
// without an Updater.
var ErrReadOnly = errors.New("cluster: machine is read-only")

// errorClasses are the error classes an opError frame carries in its
// first byte, by index; index 0 is an unclassified error. A classified
// worker error unwraps to the same sentinel on the caller's side, so
// the gateway maps remote and in-process failures to the same status.
// New classes are appended: an index never changes meaning.
var errorClasses = [...]error{nil, core.ErrNodeOutOfRange, core.ErrBadPreference, graph.ErrEdgeOutOfRange, ErrReadOnly}

// encodeError builds the opError payload for err.
func encodeError(err error) []byte {
	var class byte
	for i, c := range errorClasses[1:] {
		if errors.Is(err, c) {
			class = byte(i + 1)
			break
		}
	}
	return append([]byte{class}, err.Error()...)
}

// workerError is an error a worker answered over the wire.
type workerError struct {
	msg   string
	class error // nil when unclassified
}

func (e *workerError) Error() string { return "cluster: worker: " + e.msg }
func (e *workerError) Unwrap() error { return e.class }

// decodeError parses an opError payload. An unknown class byte (a newer
// worker) leaves the error unclassified.
func decodeError(payload []byte) error {
	if len(payload) == 0 {
		return fmt.Errorf("cluster: empty error frame")
	}
	e := &workerError{msg: string(payload[1:])}
	if int(payload[0]) < len(errorClasses) {
		e.class = errorClasses[payload[0]]
	}
	return e
}

// maxInFlight bounds concurrently executing queries per connection;
// excess requests queue in the reader. The bound keeps a misbehaving
// client from starting unbounded handlers while still allowing deep
// pipelining (well past the 64 in-flight queries the serving layer is
// specified to sustain).
const maxInFlight = 256

// Server runs the worker side of the protocol. Each connection has one
// reader, which hands every request frame to an idle handler goroutine;
// handlers live as long as the connection, so their stacks are grown
// once, and a new one starts only when none is idle and fewer than
// maxInFlight exist. Each handler writes its reply as one frame as soon
// as its query finishes.
type Server struct {
	Machine Machine
	// Updater, when non-nil, enables opUpdate frames: edge-delta batches
	// applied to the worker's live store. A worker without an Updater
	// answers update frames with an opError of class ErrReadOnly and
	// keeps serving queries.
	Updater Updater
}

// Serve accepts connections on l until the listener is closed, handling
// each with the bounded concurrent frame loop.
func (s *Server) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go s.serveConn(conn)
	}
}

// request is one request frame on its way from the reader to a handler.
type request struct {
	op      byte
	id      uint64
	payload []byte
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	w := &frameWriter{conn: conn}
	r := bufio.NewReaderSize(conn, readBufSize)
	// Unbuffered: a send succeeds only when a handler is idle and
	// waiting for it.
	work := make(chan request)
	handlers := 0
	var wg sync.WaitGroup
	ctx, cancel := context.WithCancel(context.Background())
	defer wg.Wait()
	defer close(work)
	defer cancel()
	for {
		op, id, payload, err := readFrame(r)
		if err != nil {
			return // EOF or broken peer: drop the connection
		}
		if op != opQuery && op != opQuerySet && op != opUpdate {
			w.write(frameOf(opError, id, encodeError(errors.New("bad request"))))
			return
		}
		req := request{op, id, payload}
		select {
		case work <- req:
			continue
		default:
		}
		if handlers == maxInFlight {
			work <- req // every handler is busy: queue here
			continue
		}
		handlers++
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.handle(ctx, w, req)
			for req := range work {
				s.handle(ctx, w, req)
			}
		}()
	}
}

// handle executes one request frame and writes the reply. Per-query
// failures (bad node, malformed preference) answer opError and keep the
// connection streaming; only transport errors tear it down, and then the
// reader loop notices on its next read.
func (s *Server) handle(ctx context.Context, w *frameWriter, req request) {
	var (
		share   []byte
		compute time.Duration
		frame   []byte
		err     error
	)
	switch req.op {
	case opQuery:
		if len(req.payload) != 4 {
			err = fmt.Errorf("malformed query frame")
			break
		}
		u := int32(binary.LittleEndian.Uint32(req.payload))
		share, compute, err = s.Machine.QueryShare(ctx, u)
	case opQuerySet:
		var pref core.Preference
		if pref, err = decodePreference(req.payload); err == nil {
			share, compute, err = s.Machine.QuerySetShare(ctx, pref)
		}
	case opUpdate:
		var ack []byte
		if ack, err = s.handleUpdate(ctx, req.payload); err == nil {
			frame = frameOf(opUpdateAck, req.id, ack)
		}
	}
	switch {
	case err != nil:
		frame = frameOf(opError, req.id, encodeError(err))
	case req.op != opUpdate:
		frame = newFrame(opShare, req.id, 8+len(share))
		binary.LittleEndian.PutUint64(frame[frameHeaderSize:], uint64(compute))
		copy(frame[frameHeaderSize+8:], share)
	}
	if w.write(frame) != nil {
		w.conn.Close() // a partial frame corrupts the stream for every caller
	}
}

// handleUpdate decodes and applies one edge-delta batch, answering the
// ack payload. An empty batch is acked without reaching the Updater.
func (s *Server) handleUpdate(ctx context.Context, payload []byte) ([]byte, error) {
	if s.Updater == nil {
		return nil, fmt.Errorf("updates not enabled on this worker: %w", ErrReadOnly)
	}
	d, err := decodeDelta(payload)
	if err != nil {
		return nil, err
	}
	if d.Len() == 0 {
		// The coordinator's capability probe (Pool.SupportsUpdates).
		// The Updater would make it wait behind any running batch and
		// clone the store's hierarchy, to change nothing.
		return encodeUpdateStats(UpdateStats{Digest: core.EmptyBatchDigest}), nil
	}
	stats, err := s.Updater.ApplyUpdates(ctx, d)
	if err != nil {
		return nil, err
	}
	return encodeUpdateStats(stats), nil
}

// encodePreference serializes a preference set for opQuerySet. Uniform
// weights are carried as explicit 1.0s for a simple fixed layout.
func encodePreference(p core.Preference) []byte {
	buf := make([]byte, 4+12*len(p.Nodes))
	binary.LittleEndian.PutUint32(buf, uint32(len(p.Nodes)))
	off := 4
	for i, u := range p.Nodes {
		binary.LittleEndian.PutUint32(buf[off:], uint32(u))
		w := 1.0
		if i < len(p.Weights) {
			w = p.Weights[i]
		}
		binary.LittleEndian.PutUint64(buf[off+4:], math.Float64bits(w))
		off += 12
	}
	return buf
}

// encodeDelta serializes an edge-delta batch for opUpdate.
func encodeDelta(d graph.Delta) []byte {
	buf := make([]byte, 8+8*(len(d.Insert)+len(d.Delete)))
	off := 0
	for _, edges := range [][][2]int32{d.Insert, d.Delete} {
		binary.LittleEndian.PutUint32(buf[off:], uint32(len(edges)))
		off += 4
		for _, e := range edges {
			binary.LittleEndian.PutUint32(buf[off:], uint32(e[0]))
			binary.LittleEndian.PutUint32(buf[off+4:], uint32(e[1]))
			off += 8
		}
	}
	return buf
}

func decodeDelta(buf []byte) (graph.Delta, error) {
	var d graph.Delta
	off := 0
	for i := 0; i < 2; i++ {
		if len(buf) < off+4 {
			return graph.Delta{}, fmt.Errorf("cluster: short delta frame")
		}
		n := int(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
		if n < 0 || len(buf) < off+8*n {
			return graph.Delta{}, fmt.Errorf("cluster: delta frame length mismatch")
		}
		edges := make([][2]int32, n)
		for j := range edges {
			edges[j][0] = int32(binary.LittleEndian.Uint32(buf[off:]))
			edges[j][1] = int32(binary.LittleEndian.Uint32(buf[off+4:]))
			off += 8
		}
		if i == 0 {
			d.Insert = edges
		} else {
			d.Delete = edges
		}
	}
	if off != len(buf) {
		return graph.Delta{}, fmt.Errorf("cluster: trailing bytes in delta frame")
	}
	return d, nil
}

// encodeUpdateStats serializes the opUpdateAck payload.
func encodeUpdateStats(s UpdateStats) []byte {
	buf := make([]byte, 32)
	binary.LittleEndian.PutUint64(buf, uint64(s.Inserted))
	binary.LittleEndian.PutUint64(buf[8:], uint64(s.Deleted))
	binary.LittleEndian.PutUint64(buf[16:], uint64(s.Recomputed))
	binary.LittleEndian.PutUint64(buf[24:], s.Digest)
	return buf
}

func decodeUpdateStats(buf []byte) (UpdateStats, error) {
	if len(buf) != 32 {
		return UpdateStats{}, fmt.Errorf("cluster: malformed update ack")
	}
	return UpdateStats{
		Inserted:   int64(binary.LittleEndian.Uint64(buf)),
		Deleted:    int64(binary.LittleEndian.Uint64(buf[8:])),
		Recomputed: int64(binary.LittleEndian.Uint64(buf[16:])),
		Digest:     binary.LittleEndian.Uint64(buf[24:]),
	}, nil
}

func decodePreference(buf []byte) (core.Preference, error) {
	if len(buf) < 4 {
		return core.Preference{}, fmt.Errorf("cluster: short preference frame")
	}
	n := int(binary.LittleEndian.Uint32(buf))
	if len(buf) != 4+12*n {
		return core.Preference{}, fmt.Errorf("cluster: preference frame length mismatch")
	}
	p := core.Preference{Nodes: make([]int32, n), Weights: make([]float64, n)}
	off := 4
	for i := 0; i < n; i++ {
		p.Nodes[i] = int32(binary.LittleEndian.Uint32(buf[off:]))
		p.Weights[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off+4:]))
		off += 12
	}
	return p, nil
}

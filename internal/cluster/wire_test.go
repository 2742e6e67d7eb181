package cluster

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"exactppr/internal/core"
)

// writeFrame writes one frame with one Write.
func writeFrame(w io.Writer, op byte, id uint64, payload []byte) error {
	_, err := w.Write(frameOf(op, id, payload))
	return err
}

// connCounts tallies the Read calls that returned data and the Write
// calls made on every connection that shares it.
type connCounts struct{ reads, writes atomic.Int64 }

// countingConn is a net.Conn that counts its socket reads and writes.
type countingConn struct {
	net.Conn
	n *connCounts
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.n.reads.Add(1)
	}
	return n, err
}

// Write counts on entry, so a write is tallied before its bytes can
// reach the peer.
func (c *countingConn) Write(b []byte) (int, error) {
	c.n.writes.Add(1)
	return c.Conn.Write(b)
}

type countingListener struct {
	net.Listener
	n *connCounts
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{c, l.n}, nil
}

// goroutineID starts a goroutine and returns its id. Each P hands out
// ids from its own batch of 16, so only under GOMAXPROCS(1), and after
// the one P has drawn a fresh batch, are they one sequence: then two
// probes' ids, less one, count the goroutines the process started
// between them.
func goroutineID() uint64 {
	ch := make(chan uint64)
	go func() {
		buf := make([]byte, 64)
		fields := bytes.Fields(buf[:runtime.Stack(buf, false)]) // "goroutine 42 [running]: …"
		id, _ := strconv.ParseUint(string(fields[1]), 10, 64)
		ch <- id
	}()
	return <-ch
}

// TestFrameOneWritePerFrame: over a two-worker TCP coordinator, every
// request frame and every reply frame is exactly one socket Write, each
// frame costs at most one socket Read on its receiving end, and once the
// workers' handlers have started a query starts no goroutine anywhere.
func TestFrameOneWritePerFrame(t *testing.T) {
	shards, err := core.Split(testStore(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	var client, server connCounts
	machines := make([]Machine, len(shards))
	for i, sh := range shards {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		go (&Server{Machine: &LocalMachine{Backend: sh}}).Serve(&countingListener{l, &server})
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		m := newTCPMachine(&countingConn{conn, &client})
		defer m.Close()
		machines[i] = m
	}
	c, err := NewCoordinator(machines...)
	if err != nil {
		t.Fatal(err)
	}
	query := func(i int) {
		t.Helper()
		var err error
		if i%4 == 3 {
			_, err = c.QuerySet(core.Preference{Nodes: []int32{int32(i % 150), int32(150 + i%150)}})
		} else {
			_, err = c.Query(int32(i % 300))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		query(i) // start the workers' handlers
	}

	const queries = 100
	frames := int64(queries * len(machines)) // each way
	client.reads.Store(0)
	client.writes.Store(0)
	server.reads.Store(0)
	server.writes.Store(0)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for range 16 {
		goroutineID() // use up the P's batch
	}
	before := goroutineID()
	for i := 0; i < queries; i++ {
		query(i)
	}
	spawned := int64(goroutineID()-before) - 1
	cr, cw := client.reads.Load(), client.writes.Load()
	sr, sw := server.reads.Load(), server.writes.Load()
	t.Logf("per %d-worker query: client %.2f writes %.2f reads, worker %.2f reads %.2f writes; %d goroutines started in %d queries",
		len(machines), float64(cw)/queries, float64(cr)/queries, float64(sr)/queries, float64(sw)/queries, spawned, queries)
	if cw != frames || sw != frames {
		t.Fatalf("%d request frames took %d writes, %d reply frames took %d writes; want one write per frame", frames, cw, frames, sw)
	}
	if cr > frames || sr > frames {
		t.Fatalf("%d frames each way took %d client reads and %d worker reads; want at most one read per frame", frames, cr, sr)
	}
	// A handler that has not looped back to wait for work yet when the
	// next frame lands makes the reader start another, so allow a few.
	if spawned < 0 || spawned > 2 {
		t.Fatalf("%d queries started %d goroutines", queries, spawned)
	}
}

// boundMachine blocks every query until released and records the peak
// number of concurrent calls.
type boundMachine struct {
	cur, peak, entered atomic.Int64
	release            chan struct{}
}

func (b *boundMachine) QueryShare(ctx context.Context, u int32) ([]byte, time.Duration, error) {
	b.entered.Add(1)
	n := b.cur.Add(1)
	defer b.cur.Add(-1)
	for p := b.peak.Load(); n > p && !b.peak.CompareAndSwap(p, n); p = b.peak.Load() {
	}
	select {
	case <-b.release:
		return nil, 0, nil
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	}
}

func (b *boundMachine) QuerySetShare(ctx context.Context, _ core.Preference) ([]byte, time.Duration, error) {
	return b.QueryShare(ctx, 0)
}

// TestServerInFlightBound: one connection carrying 300 queries runs at
// most maxInFlight of them at once on the worker; the rest queue in the
// reader, and all 300 answer once released.
func TestServerInFlightBound(t *testing.T) {
	b := &boundMachine{release: make(chan struct{})}
	addr, stop := startWorker(t, b)
	defer stop()
	m, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	const queries = 300
	errs := make([]error, queries)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = m.QueryShare(context.Background(), int32(i))
		}(i)
	}
	waitFor(t, "maxInFlight concurrent calls", func() bool { return b.cur.Load() == maxInFlight })
	time.Sleep(50 * time.Millisecond) // room for a call past the bound to show
	if got := b.entered.Load(); got != maxInFlight {
		t.Fatalf("%d calls entered the machine with all blocked, want %d", got, maxInFlight)
	}
	close(b.release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if peak := b.peak.Load(); peak > maxInFlight {
		t.Fatalf("%d concurrent calls, want at most %d", peak, maxInFlight)
	}
	if got := b.entered.Load(); got != queries {
		t.Fatalf("%d calls reached the machine, want %d", got, queries)
	}
}

// dyingMachine holds every query until it dies, then fails it, the way
// a machine that loses its worker mid-query does.
type dyingMachine struct {
	entered atomic.Int64
	dead    chan struct{}
}

func (d *dyingMachine) QueryShare(ctx context.Context, u int32) ([]byte, time.Duration, error) {
	d.entered.Add(1)
	<-d.dead
	return nil, 0, errors.New("machine died")
}

func (d *dyingMachine) QuerySetShare(ctx context.Context, _ core.Preference) ([]byte, time.Duration, error) {
	return d.QueryShare(ctx, 0)
}

// TestFanOutFailsFast: when machine 0 dies mid-query (an in-process
// machine fails, a TCP worker's connection is cut), the coordinator
// returns that error, tagged with the failing machine's index, without
// waiting for its slow sibling.
func TestFanOutFailsFast(t *testing.T) {
	shards, err := core.Split(testStore(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	const delay = 2 * time.Second
	// doomed returns machine 0 over each transport, a count of the
	// queries it holds, and the call that kills it.
	doomed := map[string]func(t *testing.T) (m Machine, entered func() int64, kill func()){
		"in-process": func(t *testing.T) (Machine, func() int64, func()) {
			d := &dyingMachine{dead: make(chan struct{})}
			return d, d.entered.Load, func() { close(d.dead) }
		},
		"tcp": func(t *testing.T) (Machine, func() int64, func()) {
			gate := newGateMachine(&LocalMachine{Backend: shards[0]})
			t.Cleanup(func() { close(gate.release) })
			inner, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { inner.Close() })
			rl := &recordingListener{Listener: inner, conns: make(chan net.Conn, 1)}
			go (&Server{Machine: gate}).Serve(rl)
			p, err := Dial(rl.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { p.Close() })
			return p, gate.entered.Load, func() { (<-rl.conns).Close() }
		},
	}
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			m, entered, kill := doomed[tr.name](t)
			slow := &delayMachine{inner: &LocalMachine{Backend: shards[1]}, delay: delay}
			c, err := NewCoordinator(m, tr.machine(t, slow))
			if err != nil {
				t.Fatal(err)
			}

			start := time.Now()
			errc := make(chan error, 1)
			go func() {
				_, err := c.Query(1)
				errc <- err
			}()
			waitFor(t, "query in flight", func() bool { return entered() == 1 })
			kill()

			select {
			case err = <-errc:
			case <-time.After(10 * time.Second):
				t.Fatal("query hung after its machine died")
			}
			elapsed := time.Since(start)
			if err == nil || isCancel(err) {
				t.Fatalf("err = %v, want the machine's own error", err)
			}
			if !strings.Contains(err.Error(), "machine 0:") {
				t.Fatalf("err = %v, want it tagged with machine 0", err)
			}
			if elapsed > delay/2 {
				t.Fatalf("query failed after %v, waiting on the %v sibling", elapsed, delay)
			}
		})
	}
}

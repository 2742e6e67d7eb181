package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"exactppr/internal/core"
	"exactppr/internal/sparse"
)

// gateMachine wraps a Machine and holds every query at the gate until
// released, counting arrivals — the instrument for proving genuine
// in-flight concurrency on the worker side.
type gateMachine struct {
	inner   Machine
	entered atomic.Int64
	release chan struct{}
}

func newGateMachine(inner Machine) *gateMachine {
	return &gateMachine{inner: inner, release: make(chan struct{})}
}

func (g *gateMachine) wait(ctx context.Context) error {
	select {
	case <-g.release:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (g *gateMachine) QueryShare(ctx context.Context, u int32) ([]byte, time.Duration, error) {
	g.entered.Add(1)
	if err := g.wait(ctx); err != nil {
		return nil, 0, err
	}
	return g.inner.QueryShare(ctx, u)
}

func (g *gateMachine) QuerySetShare(ctx context.Context, p core.Preference) ([]byte, time.Duration, error) {
	g.entered.Add(1)
	if err := g.wait(ctx); err != nil {
		return nil, 0, err
	}
	return g.inner.QuerySetShare(ctx, p)
}

func startWorker(t *testing.T, m Machine) (addr string, stop func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go (&Server{Machine: m}).Serve(l)
	return l.Addr().String(), func() { l.Close() }
}

// newTCPMachine returns a Pool over an open connection to a worker;
// once conn breaks, the Pool re-dials its remote address.
func newTCPMachine(conn net.Conn) *Pool {
	return newPool(conn.RemoteAddr().String(), startConn(conn))
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMux64InFlightOneConnection: a single worker holds 64 queries
// simultaneously in flight over ONE multiplexed TCP connection, and when
// released every response demuxes back to the caller that asked for it.
func TestMux64InFlightOneConnection(t *testing.T) {
	s := testStore(t)
	shards, err := core.Split(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	gate := newGateMachine(&LocalMachine{Backend: shards[0]})
	addr, stop := startWorker(t, gate)
	defer stop()
	m, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	const inFlight = 64
	errs := make([]error, inFlight)
	payloads := make([][]byte, inFlight)
	var wg sync.WaitGroup
	for i := 0; i < inFlight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payloads[i], _, errs[i] = m.QueryShare(context.Background(), int32(i))
		}(i)
	}
	// All 64 must reach the worker's gate before anything is answered:
	// that is ≥64 concurrent in-flight queries on one connection.
	waitFor(t, "64 in-flight queries", func() bool { return gate.entered.Load() == inFlight })
	close(gate.release)
	wg.Wait()

	for i := 0; i < inFlight; i++ {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		got, err := sparse.DecodePacked(payloads[i])
		if err != nil {
			t.Fatal(err)
		}
		want, err := shards[0].Query(int32(i))
		if err != nil {
			t.Fatal(err)
		}
		// Each caller must get the answer to ITS source node — any demux
		// mix-up swaps whole distinct vectors and trips this immediately.
		if d := sparse.LInfDistance(got.Unpack(), want); d != 0 {
			t.Fatalf("query %d demuxed wrong response, L∞ = %v", i, d)
		}
	}
}

// delayMachine adds a fixed latency to every query, standing in for the
// network + compute time of a realistically loaded worker.
type delayMachine struct {
	inner Machine
	delay time.Duration
}

func (d *delayMachine) QueryShare(ctx context.Context, u int32) ([]byte, time.Duration, error) {
	select {
	case <-time.After(d.delay):
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	}
	return d.inner.QueryShare(ctx, u)
}

func (d *delayMachine) QuerySetShare(ctx context.Context, p core.Preference) ([]byte, time.Duration, error) {
	select {
	case <-time.After(d.delay):
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	}
	return d.inner.QuerySetShare(ctx, p)
}

// TestThroughputScalesWithConcurrency: with 20ms of per-query worker
// latency, 32 concurrent clients on ONE multiplexed connection finish in
// a fraction of the 32×20ms a lock-step protocol would need — the old
// protocol's 1/latency throughput cap is gone.
func TestThroughputScalesWithConcurrency(t *testing.T) {
	s := testStore(t)
	shards, err := core.Split(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	const delay = 20 * time.Millisecond
	const clients = 32
	addr, stop := startWorker(t, &delayMachine{inner: &LocalMachine{Backend: shards[0]}, delay: delay})
	defer stop()
	m, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	c, err := NewCoordinator(m)
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Query(int32(i))
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	// Lock-step would take clients×delay = 640ms; overlapped in-flight
	// queries should take ~delay. A 4× margin keeps slow CI hosts green
	// while still proving genuine overlap.
	if lockStep := time.Duration(clients) * delay; wall > lockStep/4 {
		t.Fatalf("32 concurrent queries took %v — not overlapping (lock-step would be %v)", wall, lockStep)
	}
}

// recordingListener hands accepted connections to the test so it can
// sever them mid-flight, simulating a worker crash.
type recordingListener struct {
	net.Listener
	conns chan net.Conn
}

func (l *recordingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.conns <- c
	}
	return c, err
}

// TestWorkerKilledMidFlight: severing the worker connection fails every
// in-flight query promptly (no hangs) while a healthy worker keeps
// serving untouched.
func TestWorkerKilledMidFlight(t *testing.T) {
	s := testStore(t)
	shards, err := core.Split(s, 2)
	if err != nil {
		t.Fatal(err)
	}

	// Doomed worker, gated so queries are provably in flight at the kill.
	gate := newGateMachine(&LocalMachine{Backend: shards[0]})
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	rl := &recordingListener{Listener: inner, conns: make(chan net.Conn, 1)}
	go (&Server{Machine: gate}).Serve(rl)
	doomed, err := Dial(rl.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer doomed.Close()

	// Healthy worker.
	healthyAddr, stopHealthy := startWorker(t, &LocalMachine{Backend: shards[1]})
	defer stopHealthy()
	healthy, err := Dial(healthyAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()

	const inFlight = 16
	errs := make([]error, inFlight)
	var wg sync.WaitGroup
	for i := 0; i < inFlight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = doomed.QueryShare(context.Background(), int32(i))
		}(i)
	}
	waitFor(t, "in-flight queries", func() bool { return gate.entered.Load() == inFlight })

	// Kill the worker mid-flight. The listener goes first, so that the
	// Pool's re-dial fails as it would against a dead host.
	inner.Close()
	(<-rl.conns).Close()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight queries hung after worker death")
	}
	for i, err := range errs {
		if err == nil {
			t.Fatalf("query %d succeeded after its worker was killed", i)
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("query %d: want a transport error, got %v", i, err)
		}
	}
	if !doomed.conn.Load().broken.Load() {
		t.Fatal("dead transport still reports healthy")
	}

	// The other worker is untouched.
	if _, _, err := healthy.QueryShare(context.Background(), 1); err != nil {
		t.Fatalf("healthy worker affected by sibling death: %v", err)
	}

	// A coordinator over the pair surfaces the dead machine as one clean
	// error (extending the TestCoordinatorPropagatesDeadMachine contract).
	c, err := NewCoordinator(doomed, healthy)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(1); err == nil {
		t.Fatal("coordinator must propagate the dead machine")
	}
}

// TestMuxContextTimeout: a per-query deadline abandons only that query;
// the connection survives and the late response is silently discarded.
func TestMuxContextTimeout(t *testing.T) {
	s := testStore(t)
	shards, err := core.Split(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	gate := newGateMachine(&LocalMachine{Backend: shards[0]})
	addr, stop := startWorker(t, gate)
	defer stop()
	m, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, _, err := m.QueryShare(ctx, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	close(gate.release) // the abandoned query now completes server-side

	// Same connection, fresh query: the stale response must not be
	// delivered to the new request id.
	payload, _, err := m.QueryShare(context.Background(), 2)
	if err != nil {
		t.Fatalf("connection should survive an abandoned query: %v", err)
	}
	got, err := sparse.DecodePacked(payload)
	if err != nil {
		t.Fatal(err)
	}
	want, err := shards[0].Query(2)
	if err != nil {
		t.Fatal(err)
	}
	if d := sparse.LInfDistance(got.Unpack(), want); d != 0 {
		t.Fatalf("post-timeout query demuxed wrong response, L∞ = %v", d)
	}
}

// TestCoordinatorTimeout: a query deadline turns a stuck machine into a
// clean deadline error, over either transport.
func TestCoordinatorTimeout(t *testing.T) {
	s := testStore(t)
	shards, err := core.Split(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			gate := newGateMachine(&LocalMachine{Backend: shards[0]})
			defer close(gate.release)
			c, err := NewCoordinator(tr.machine(t, gate))
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			if _, err := c.QueryCtx(ctx, 1); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want deadline exceeded", err)
			}
		})
	}
}

// transports names the two ways a Coordinator reaches a machine: called
// in process, or served by a TCP worker and reached through a Pool.
var transports = []struct {
	name    string
	machine func(t *testing.T, m Machine) Machine
}{
	{"in-process", func(t *testing.T, m Machine) Machine { return m }},
	{"tcp", func(t *testing.T, m Machine) Machine {
		t.Helper()
		addr, stop := startWorker(t, m)
		t.Cleanup(stop)
		p, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		return p
	}},
}

// TestPool: a Pool is one multiplexed connection. Severing it under 32
// concurrent callers costs exactly one re-dial, after which every query
// succeeds; a worker that is gone fails calls cleanly, a restarted one
// heals the pool, and a closed pool stays closed.
func TestPool(t *testing.T) {
	s := testStore(t)
	shards, err := core.Split(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	rl := &recordingListener{Listener: inner, conns: make(chan net.Conn, 8)}
	go (&Server{Machine: &LocalMachine{Backend: shards[0]}}).Serve(rl)
	addr := rl.Addr().String()
	p, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	query := func(u int32) error {
		_, _, err := p.QueryShare(context.Background(), u)
		return err
	}
	if err := query(1); err != nil {
		t.Fatal(err)
	}

	(<-rl.conns).Close() // sever the connection from the worker's end
	waitFor(t, "the pool to see its connection break", func() bool { return p.conn.Load().broken.Load() })
	var wg sync.WaitGroup
	errs := make([]error, 32)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = query(int32(i % 8))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d after the break: %v", i, err)
		}
	}
	waitFor(t, "the re-dial's accept", func() bool { return len(rl.conns) > 0 })
	time.Sleep(50 * time.Millisecond) // room for a second accept to show
	if n := len(rl.conns); n != 1 {
		t.Fatalf("%d re-dials after one break, want 1", n)
	}
	for i := 0; i < 6; i++ {
		if err := query(int32(i)); err != nil {
			t.Fatalf("query on the re-dialed connection: %v", err)
		}
	}

	// Worker gone entirely: connection dead and re-dial refused — the
	// pool must error cleanly, not hang.
	inner.Close()
	(<-rl.conns).Close()
	waitFor(t, "the pool to see its connection break", func() bool { return p.conn.Load().broken.Load() })
	if err := query(1); err == nil {
		t.Fatal("pool with an unreachable worker must error")
	}

	// A restarted worker on the same address heals the pool via re-dial.
	l, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer l.Close()
	go (&Server{Machine: &LocalMachine{Backend: shards[0]}}).Serve(l)
	if err := query(1); err != nil {
		t.Fatalf("pool should re-dial a restarted worker: %v", err)
	}

	p.Close()
	if err := query(1); !errors.Is(err, ErrMachineClosed) {
		t.Fatalf("query on a closed pool: err = %v, want ErrMachineClosed", err)
	}
}

// TestCoordinatorConcurrentQueries: many goroutines share one coordinator
// over multiplexed TCP machines; every answer matches the central store.
func TestCoordinatorConcurrentQueries(t *testing.T) {
	s := testStore(t)
	shards, err := core.Split(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	var machines []Machine
	for _, sh := range shards {
		addr, stop := startWorker(t, &LocalMachine{Backend: sh})
		defer stop()
		m, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		machines = append(machines, m)
	}
	c, err := NewCoordinator(machines...)
	if err != nil {
		t.Fatal(err)
	}

	const clients = 16
	const perClient = 8
	errCh := make(chan error, clients)
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < perClient; j++ {
				u := int32((g*perClient + j) % 300)
				stats, err := c.Query(u)
				if err != nil {
					errCh <- fmt.Errorf("u=%d: %w", u, err)
					return
				}
				want, err := s.Query(u)
				if err != nil {
					errCh <- err
					return
				}
				if d := sparse.LInfDistance(stats.Result.Unpack(), want); d > 1e-12 {
					errCh <- fmt.Errorf("u=%d: concurrent distributed ≠ central, L∞ = %v", u, d)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// BenchmarkTCPCoordinator measures query throughput against one TCP
// worker over one multiplexed connection, and (two-workers/…) against
// two workers holding one slice each, the tcp-read topology. The
// parallel variants issue queries from many goroutines; on a multi-core
// runner they must beat the serial ones because the worker executes
// frames on its handler pool instead of one at a time. two-local/… runs
// the same queries over two in-process machines holding the same two
// slices: the coordinator's one fan-out, without the wire.
func BenchmarkTCPCoordinator(b *testing.B) {
	s := benchStore(b)
	run := func(b *testing.B, machines []Machine) {
		c, err := NewCoordinator(machines...)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("serial", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := c.Query(int32(i % 300)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("parallel", func(b *testing.B) {
			var next atomic.Int64
			b.SetParallelism(4) // 4×GOMAXPROCS client goroutines
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					u := int32(next.Add(1) % 300)
					if _, err := c.Query(u); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
	// slices returns an in-process machine over each of n slices of s.
	slices := func(b *testing.B, n int) []Machine {
		shards, err := core.Split(s, n)
		if err != nil {
			b.Fatal(err)
		}
		machines := make([]Machine, n)
		for i, sh := range shards {
			machines[i] = &LocalMachine{Backend: sh}
		}
		return machines
	}
	// workers serves each of n slices of s from a TCP worker.
	workers := func(b *testing.B, n int) []Machine {
		machines := slices(b, n)
		for i, m := range machines {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { l.Close() })
			go (&Server{Machine: m}).Serve(l)
			p, err := Dial(l.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { p.Close() })
			machines[i] = p
		}
		return machines
	}
	run(b, workers(b, 1))
	b.Run("two-workers", func(b *testing.B) { run(b, workers(b, 2)) })
	b.Run("two-local", func(b *testing.B) { run(b, slices(b, 2)) })
}

// BenchmarkTCPCoordinatorLatency is the same comparison with 2ms of
// injected worker latency — the regime the multiplexed protocol exists
// for. Serial throughput is capped at 1/latency; the parallel variant
// overlaps in-flight queries on one connection and lands at a small
// fraction of that, regardless of host core count.
func BenchmarkTCPCoordinatorLatency(b *testing.B) {
	s := benchStore(b)
	shards, err := core.Split(s, 1)
	if err != nil {
		b.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	const delay = 2 * time.Millisecond
	go (&Server{Machine: &delayMachine{inner: &LocalMachine{Backend: shards[0]}, delay: delay}}).Serve(l)
	m, err := Dial(l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	c, err := NewCoordinator(m)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := c.Query(int32(i % 300)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		var next atomic.Int64
		b.SetParallelism(32)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				u := int32(next.Add(1) % 300)
				if _, err := c.Query(u); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

func benchStore(b *testing.B) *core.Store {
	b.Helper()
	// Same shape as testStore, rebuilt here because testing.T and
	// testing.B don't share helpers.
	s, err := buildStore()
	if err != nil {
		b.Fatal(err)
	}
	return s
}

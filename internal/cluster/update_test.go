package cluster

import (
	"context"
	"errors"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"exactppr/internal/core"
	"exactppr/internal/graph"
	"exactppr/internal/sparse"
)

// TestGatewayBatchPartialFailure: a failed source inside a batch must be
// visibly failed — per-result error text plus top-level failed/partial —
// never a zeroed result masquerading as an empty PPV in a clean 200.
func TestGatewayBatchPartialFailure(t *testing.T) {
	_, srv := testGateway(t)
	var out batchResponse
	postJSON(t, srv.URL+"/ppv", map[string]any{"nodes": []int32{5, -1, 9}}, http.StatusOK, &out)
	if !out.Partial || out.Failed != 1 {
		t.Fatalf("partial=%v failed=%d, want true/1", out.Partial, out.Failed)
	}
	if out.Results[1].Error == "" {
		t.Fatal("failed result carries no error text")
	}
	if out.Results[0].Error != "" || out.Results[2].Error != "" {
		t.Fatalf("good results polluted: %+v", out.Results)
	}

	// A fully healthy batch reports neither flag.
	var healthy batchResponse
	postJSON(t, srv.URL+"/ppv", map[string]any{"nodes": []int32{5, 9}}, http.StatusOK, &healthy)
	if healthy.Partial || healthy.Failed != 0 {
		t.Fatalf("healthy batch flagged partial=%v failed=%d", healthy.Partial, healthy.Failed)
	}
}

// TestGatewayBatchCancellation: a batch whose REQUEST context dies
// mid-fan-out must not return 200 with zeroed results — deadline maps
// to 504, client-gone to 499, consistent with single queries.
func TestGatewayBatchCancellation(t *testing.T) {
	g := NewGateway(stuckQuerier{})
	g.Timeout = 10 * time.Second // per-query budget is NOT the trigger here

	run := func(ctx context.Context) *httptest.ResponseRecorder {
		req := httptest.NewRequest("POST", "/ppv",
			strings.NewReader(`{"nodes":[1,2,3]}`)).WithContext(ctx)
		rec := httptest.NewRecorder()
		g.Handler().ServeHTTP(rec, req)
		return rec
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if rec := run(ctx); rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("deadline-cut batch: status %d, want 504", rec.Code)
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	go func() { time.Sleep(10 * time.Millisecond); cancel2() }()
	if rec := run(ctx2); rec.Code != statusClientClosedRequest {
		t.Fatalf("client-cancelled batch: status %d, want 499", rec.Code)
	}

	// The single-query path maps the same way.
	req := httptest.NewRequest("GET", "/ppv/1", nil)
	ctx3, cancel3 := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel3()
	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, req.WithContext(ctx3))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("deadline-cut single query: status %d, want 504", rec.Code)
	}
}

// TestGatewayEdges: POST /edges applies a delta through a live local
// cluster and subsequent queries serve the updated graph.
func TestGatewayEdges(t *testing.T) {
	s := testStore(t)
	live, err := NewLiveLocalCluster(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewGateway(live).Handler())
	defer srv.Close()

	before, err := live.Store().Query(7)
	if err != nil {
		t.Fatal(err)
	}
	var ack map[string]any
	postJSON(t, srv.URL+"/edges", map[string]any{
		"insert": [][2]int32{{7, 250}, {7, 251}},
	}, http.StatusOK, &ack)
	if ack["inserted"].(float64) != 2 {
		t.Fatalf("ack = %v", ack)
	}
	if ack["recomputed"].(float64) <= 0 {
		t.Fatal("nothing recomputed")
	}

	after := live.Store()
	want, err := after.Query(7)
	if err != nil {
		t.Fatal(err)
	}
	if sparse.LInfDistance(before, want) == 0 {
		t.Fatal("update did not change node 7's PPV")
	}
	// The HTTP query path serves the post-update snapshot.
	var res resultJSON
	getJSON(t, srv.URL+"/ppv/7?topk=3", http.StatusOK, &res)
	wantTop := want.TopK(3)
	for i, e := range res.TopK {
		if e.ID != wantTop[i].ID || math.Abs(e.Score-wantTop[i].Score) > 1e-9 {
			t.Fatalf("rank %d: got (%d,%v), want (%d,%v)", i, e.ID, e.Score, wantTop[i].ID, wantTop[i].Score)
		}
	}

	var e map[string]string
	postJSON(t, srv.URL+"/edges", map[string]any{}, http.StatusBadRequest, &e)
	postJSON(t, srv.URL+"/edges", map[string]any{
		"insert": [][2]int32{{0, 99999}},
	}, http.StatusBadRequest, &e)
	if !strings.Contains(e["error"], "out of range") {
		t.Fatalf("error = %q", e["error"])
	}
}

// TestGatewayEdgesUnsupported: a read-only backend answers 501, not a
// panic or a silent 200.
func TestGatewayEdgesUnsupported(t *testing.T) {
	_, srv := testGateway(t) // plain NewLocalCluster: no Updater
	var e map[string]string
	postJSON(t, srv.URL+"/edges", map[string]any{
		"insert": [][2]int32{{1, 2}},
	}, http.StatusNotImplemented, &e)
}

// TestTCPClusterUpdates drives the UPDATE frame end-to-end: two TCP
// workers (each holding its own live store copy, as real worker
// processes do), a coordinator fan-out, and query equivalence against
// an in-process store maintained with the same batches.
func TestTCPClusterUpdates(t *testing.T) {
	oracle := testStore(t) // in-process reference, updated in lockstep
	oracleLive := core.NewLiveStore(oracle)

	const machines = 2
	var addrs []string
	for i := 0; i < machines; i++ {
		s := testStore(t) // each worker process loads its own store copy
		live, err := NewLiveShard(core.NewLiveStore(s), i, machines)
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := &Server{Machine: live, Updater: live}
		go srv.Serve(l)
		defer l.Close()
		addrs = append(addrs, l.Addr().String())
	}
	var ms []Machine
	for _, addr := range addrs {
		m, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		ms = append(ms, m)
	}
	coord, err := NewCoordinator(ms...)
	if err != nil {
		t.Fatal(err)
	}

	d := graph.Delta{
		Insert: [][2]int32{{3, 200}, {120, 4}},
		Delete: [][2]int32{{0, oracle.H.G.Out(0)[0]}},
	}
	stats, err := coord.ApplyUpdates(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	info, err := oracleLive.ApplyUpdates(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Recomputed != int64(info.Recomputed) || stats.Inserted != int64(info.Inserted) || stats.Deleted != int64(info.Deleted) {
		t.Fatalf("cluster stats %+v disagree with local info %+v", stats, info)
	}

	for _, u := range []int32{0, 3, 120, 299} {
		qs, err := coord.Query(u)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracleLive.Store().Query(u)
		if err != nil {
			t.Fatal(err)
		}
		if dist := sparse.LInfDistance(qs.Result.Unpack(), want); dist > 1e-9 {
			t.Fatalf("u=%d: distributed post-update L∞ = %v", u, dist)
		}
	}

	// A read-only worker refuses the frame with a clean error.
	s := testStore(t)
	shards, err := core.Split(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	addr, stop := startWorker(t, &LocalMachine{Backend: shards[0]})
	defer stop()
	m, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.ApplyUpdates(context.Background(), d); err == nil || !strings.Contains(err.Error(), "updates not enabled") {
		t.Fatalf("read-only worker: err = %v", err)
	}
	roCoord, err := NewCoordinator(ms[0], m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := roCoord.ApplyUpdates(context.Background(), d); err == nil {
		t.Fatal("coordinator must refuse a mixed-capability cluster or surface the failure")
	}
	// The capability probe reflects the WORKER's configuration, not the
	// client stub's method set: true for -updates workers, false for the
	// read-only one, so Coordinator.ApplyUpdates refuses a mixed cluster
	// before sending it anything.
	if !ms[0].(*Pool).SupportsUpdates() {
		t.Fatal("updatable worker probed as read-only")
	}
	if m.SupportsUpdates() {
		t.Fatal("read-only worker probed as updatable")
	}
	if roCoord.SupportsUpdates() {
		t.Fatal("mixed cluster must not report update support")
	}
}

// TestLiveLocalClusterSnapshotAtomicQueries: on a single host, a query
// overlapping an update must match the pre-batch or the post-batch
// store exactly — never a cross-machine mix of the two. Run under
// -race in CI.
func TestLiveLocalClusterSnapshotAtomicQueries(t *testing.T) {
	s := testStore(t)
	live, err := NewLiveLocalCluster(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	const q = 7
	// Batches that materially move r_q: edges out of q shift its mass.
	batches := []graph.Delta{
		{Insert: [][2]int32{{q, 200}, {q, 201}, {q, 202}}},
		{Delete: [][2]int32{{q, 200}, {q, 201}, {q, 202}}},
	}
	stop := make(chan struct{})
	bad := make(chan string, 4)
	var wg sync.WaitGroup
	var snapsMu sync.Mutex
	snaps := []*core.Store{live.Store()} // every snapshot ever published
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				qs, err := live.QueryCtx(context.Background(), q)
				if err != nil {
					bad <- err.Error()
					return
				}
				got := qs.Result.Unpack()
				matches := func() bool {
					snapsMu.Lock()
					candidates := append([]*core.Store(nil), snaps...)
					snapsMu.Unlock()
					for _, snap := range candidates {
						want, err := snap.Query(q)
						if err != nil {
							return false
						}
						if sparse.LInfDistance(got, want) <= 1e-11 {
							return true
						}
					}
					return false
				}
				if !matches() {
					// The swap happens inside ApplyUpdates, slightly before
					// the test appends the new snapshot — give the appender
					// a moment before declaring the result torn.
					time.Sleep(50 * time.Millisecond)
					if !matches() {
						bad <- "query result matches no published snapshot (torn across machines?)"
						return
					}
				}
			}
		}()
	}
	for round := 0; round < 3; round++ {
		for _, d := range batches {
			if _, err := live.ApplyUpdates(context.Background(), d); err != nil {
				t.Fatal(err)
			}
			snapsMu.Lock()
			snaps = append(snaps, live.Store())
			snapsMu.Unlock()
		}
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-bad:
		t.Fatal(msg)
	default:
	}
}

// TestDeltaCodecRoundTrip covers the opUpdate and opUpdateAck payload
// encodings.
func TestDeltaCodecRoundTrip(t *testing.T) {
	d := graph.Delta{
		Insert: [][2]int32{{1, 2}, {3, 4}},
		Delete: [][2]int32{{9, 0}},
	}
	got, err := decodeDelta(encodeDelta(d))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Insert) != 2 || len(got.Delete) != 1 || got.Insert[1] != [2]int32{3, 4} || got.Delete[0] != [2]int32{9, 0} {
		t.Fatalf("round trip = %+v", got)
	}
	if _, err := decodeDelta([]byte{1, 2, 3}); err == nil {
		t.Fatal("short frame must fail")
	}
	if _, err := decodeDelta(append(encodeDelta(d), 0)); err == nil {
		t.Fatal("trailing bytes must fail")
	}
	st := UpdateStats{Inserted: 5, Deleted: 2, Recomputed: 77, Digest: 0x0123456789abcdef, Epoch: 3, History: 0xfedcba9876543210}
	got2, err := decodeUpdateStats(encodeUpdateStats(st))
	if err != nil {
		t.Fatal(err)
	}
	if got2 != st {
		t.Fatalf("stats round trip = %+v", got2)
	}
	if _, err := decodeUpdateStats([]byte{1}); err == nil {
		t.Fatal("malformed ack must fail")
	}
	// The 4-field ack of a build before Epoch and History.
	if _, err := decodeUpdateStats(make([]byte, 32)); err == nil || !strings.Contains(err.Error(), "malformed update ack") {
		t.Fatalf("32-byte ack: err = %v, want a malformed update ack", err)
	}
}

// heldUpdater holds every batch until released, serializing batches the
// way core.LiveStore does.
type heldUpdater struct {
	mu      sync.Mutex
	entered chan struct{}
	release chan struct{}
}

func (h *heldUpdater) ApplyUpdates(ctx context.Context, d graph.Delta) (UpdateStats, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.entered <- struct{}{}
	<-h.release
	return UpdateStats{Inserted: int64(len(d.Insert))}, nil
}

// TestUpdateProbeSkipsStore: the capability probe (an empty batch) is
// answered by the worker itself. It does not wait behind a batch that is
// still running, and it acks the digest a live store reports for an
// empty batch, so the coordinator's agreement check is unchanged.
func TestUpdateProbeSkipsStore(t *testing.T) {
	shards, err := core.Split(testStore(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	held := &heldUpdater{entered: make(chan struct{}, 1), release: make(chan struct{})}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go (&Server{Machine: &LocalMachine{Backend: shards[0]}, Updater: held}).Serve(l)
	p, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	batch := make(chan error, 1)
	go func() {
		_, err := p.ApplyUpdates(context.Background(), graph.Delta{Insert: [][2]int32{{1, 2}}})
		batch <- err
	}()
	<-held.entered // the batch is running on the worker

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	ack, err := p.ApplyUpdates(ctx, graph.Delta{})
	if err != nil {
		t.Fatalf("probe behind a running batch: %v", err)
	}
	close(held.release)
	if err := <-batch; err != nil {
		t.Fatal(err)
	}

	live, err := NewLiveShard(core.NewLiveStore(testStore(t)), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := live.ApplyUpdates(context.Background(), graph.Delta{})
	if err != nil {
		t.Fatal(err)
	}
	if ack.Inserted != 0 || ack.Deleted != 0 || ack.Recomputed != 0 || ack.Digest != want.Digest {
		t.Fatalf("probe ack %+v, want 0/0/0 and the live store's empty-batch digest %016x", ack, want.Digest)
	}
}

// TestUpdateProbedBeforeSend: Coordinator.ApplyUpdates asks every
// machine before it sends the batch anywhere. A read-only worker makes
// it fail with ErrReadOnly (501 through the gateway) with the updatable
// worker's graph untouched; a dead worker makes it fail with the
// transport error (502), not ErrReadOnly.
func TestUpdateProbedBeforeSend(t *testing.T) {
	d := graph.Delta{Insert: [][2]int32{{3, 200}}}
	// updatable starts an -updates worker for slice 0 of 2.
	updatable := func(t *testing.T) (*LiveShard, net.Listener) {
		live, err := NewLiveShard(core.NewLiveStore(testStore(t)), 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		go (&Server{Machine: live, Updater: live}).Serve(l)
		return live, l
	}
	dial := func(t *testing.T, addr string) *Pool {
		p, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		return p
	}

	t.Run("read-only worker", func(t *testing.T) {
		live, l := updatable(t)
		shards, err := core.Split(testStore(t), 2)
		if err != nil {
			t.Fatal(err)
		}
		roAddr, stop := startWorker(t, &LocalMachine{Backend: shards[1]})
		defer stop()
		c, err := NewCoordinator(dial(t, l.Addr().String()), dial(t, roAddr))
		if err != nil {
			t.Fatal(err)
		}
		epoch := live.Shard().H.G.Epoch()
		_, err = c.ApplyUpdates(context.Background(), d)
		if got := live.Shard().H.G.Epoch(); got != epoch {
			t.Fatalf("the updatable worker's graph moved from epoch %d to %d: the cluster is torn", epoch, got)
		}
		if !errors.Is(err, ErrReadOnly) || !strings.Contains(err.Error(), "machine 1:") {
			t.Fatalf("err = %v, want machine 1's ErrReadOnly", err)
		}
	})

	t.Run("dead worker", func(t *testing.T) {
		live, l := updatable(t)
		inner, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		rl := &recordingListener{Listener: inner, conns: make(chan net.Conn, 1)}
		other, err := NewLiveShard(core.NewLiveStore(testStore(t)), 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		go (&Server{Machine: other, Updater: other}).Serve(rl)
		c, err := NewCoordinator(dial(t, l.Addr().String()), dial(t, rl.Addr().String()))
		if err != nil {
			t.Fatal(err)
		}
		inner.Close()
		(<-rl.conns).Close() // worker 1 is gone
		epoch := live.Shard().H.G.Epoch()

		srv := httptest.NewServer(NewGateway(c).Handler())
		defer srv.Close()
		var e map[string]string
		postJSON(t, srv.URL+"/edges", map[string]any{"insert": d.Insert}, http.StatusBadGateway, &e)
		if !strings.Contains(e["error"], "machine 1:") {
			t.Fatalf("error = %q, want machine 1's failure", e["error"])
		}
		if got := live.Shard().H.G.Epoch(); got != epoch {
			t.Fatalf("the live worker's graph moved from epoch %d to %d: the cluster is torn", epoch, got)
		}
	})
}

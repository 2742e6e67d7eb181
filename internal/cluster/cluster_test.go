package cluster

import (
	"context"
	"net"
	"testing"
	"time"

	"exactppr/internal/core"
	"exactppr/internal/gen"
	"exactppr/internal/hierarchy"
	"exactppr/internal/ppr"
	"exactppr/internal/sparse"
)

func buildStore() (*core.Store, error) {
	g, err := gen.Community(gen.Config{
		Nodes: 300, AvgOutDegree: 4, Communities: 3,
		InterFrac: 0.05, MinOutDegree: 1, Seed: 2,
	})
	if err != nil {
		return nil, err
	}
	return core.BuildHGPA(g, hierarchy.Options{Seed: 1}, ppr.Params{Alpha: 0.15, Eps: 1e-7}, 2)
}

func testStore(t *testing.T) *core.Store {
	t.Helper()
	s, err := buildStore()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestLocalClusterMatchesCentralQuery(t *testing.T) {
	s := testStore(t)
	for _, n := range []int{1, 3, 6} {
		c, err := NewLocalCluster(s, n)
		if err != nil {
			t.Fatal(err)
		}
		if c.NumMachines() != n {
			t.Fatalf("NumMachines = %d", c.NumMachines())
		}
		for _, u := range []int32{0, 150, 299} {
			stats, err := c.Query(u)
			if err != nil {
				t.Fatal(err)
			}
			want, err := s.Query(u)
			if err != nil {
				t.Fatal(err)
			}
			if d := sparse.LInfDistance(stats.Result.Unpack(), want); d > 1e-12 {
				t.Fatalf("n=%d u=%d: distributed ≠ central, L∞ = %v", n, u, d)
			}
		}
	}
}

func TestQueryStatsAccounting(t *testing.T) {
	s := testStore(t)
	c, err := NewLocalCluster(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := c.Query(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.MachineTime) != 4 {
		t.Fatalf("MachineTime count = %d", len(stats.MachineTime))
	}
	if stats.MaxMachineTime() <= 0 || stats.Wall <= 0 {
		t.Fatalf("times not recorded: %+v", stats)
	}
	// Bytes = Σ encoded share sizes; every machine sends ≥ the 4-byte
	// empty-vector header, so at least 16 bytes total.
	if stats.BytesReceived < 16 {
		t.Fatalf("BytesReceived = %d", stats.BytesReceived)
	}
	// One round: bytes must equal the sum of each shard's encoded share.
	shards, _ := core.Split(s, 4)
	var want int64
	for _, sh := range shards {
		v, err := sh.Query(10)
		if err != nil {
			t.Fatal(err)
		}
		want += int64(sparse.EncodedSize(v))
	}
	if stats.BytesReceived != want {
		t.Fatalf("BytesReceived = %d, want %d", stats.BytesReceived, want)
	}
}

func TestCoordinatorErrors(t *testing.T) {
	if _, err := NewCoordinator(); err == nil {
		t.Fatal("empty coordinator should fail")
	}
	s := testStore(t)
	c, _ := NewLocalCluster(s, 2)
	if _, err := c.Query(-1); err == nil {
		t.Fatal("bad query should propagate machine error")
	}
}

// TestTCPCluster runs real workers over loopback TCP and verifies the
// distributed result and the one-round protocol end to end.
func TestTCPCluster(t *testing.T) {
	s := testStore(t)
	shards, err := core.Split(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	var machines []Machine
	var cleanup []func()
	for _, sh := range shards {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go (&Server{Machine: &LocalMachine{Backend: sh}}).Serve(l)
		m, err := Dial(l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		machines = append(machines, m)
		cleanup = append(cleanup, func() { m.Close(); l.Close() })
	}
	defer func() {
		for _, f := range cleanup {
			f()
		}
	}()
	c, err := NewCoordinator(machines...)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []int32{5, 123, 299} {
		stats, err := c.Query(u)
		if err != nil {
			t.Fatal(err)
		}
		want, err := s.Query(u)
		if err != nil {
			t.Fatal(err)
		}
		if d := sparse.LInfDistance(stats.Result.Unpack(), want); d > 1e-12 {
			t.Fatalf("u=%d: TCP result L∞ = %v", u, d)
		}
		if stats.BytesReceived <= 0 {
			t.Fatal("no bytes accounted over TCP")
		}
	}
	// Repeated queries over the same connections (stream protocol).
	for i := 0; i < 5; i++ {
		if _, err := c.Query(int32(i)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTCPWorkerError(t *testing.T) {
	s := testStore(t)
	shards, _ := core.Split(s, 1)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go (&Server{Machine: &LocalMachine{Backend: shards[0]}}).Serve(l)
	m, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, _, err := m.QueryShare(context.Background(), -42); err == nil {
		t.Fatal("out-of-range query should return a worker error")
	}
	// The connection must survive the error (opError keeps streaming).
	if _, _, err := m.QueryShare(context.Background(), 1); err != nil {
		t.Fatalf("connection should survive a worker error: %v", err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	go func() {
		writeFrame(server, opShare, 42, []byte("hello"))
	}()
	op, id, payload, err := readFrame(client)
	if err != nil {
		t.Fatal(err)
	}
	if op != opShare || id != 42 || string(payload) != "hello" {
		t.Fatalf("frame = %d id=%d %q", op, id, payload)
	}
}

func TestTCPMachineConcurrentSafe(t *testing.T) {
	s := testStore(t)
	shards, _ := core.Split(s, 1)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go (&Server{Machine: &LocalMachine{Backend: shards[0]}}).Serve(l)
	m, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(u int32) {
			_, _, err := m.QueryShare(context.Background(), u)
			done <- err
		}(int32(i))
	}
	deadline := time.After(10 * time.Second)
	for i := 0; i < 8; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatal("concurrent queries deadlocked")
		}
	}
}

func TestQuerySetDistributed(t *testing.T) {
	s := testStore(t)
	pref := core.Preference{Nodes: []int32{5, 50, 150}, Weights: []float64{1, 2, 1}}
	want, err := s.QuerySet(pref)
	if err != nil {
		t.Fatal(err)
	}
	// In-process machines.
	c, err := NewLocalCluster(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := c.QuerySet(pref)
	if err != nil {
		t.Fatal(err)
	}
	if d := sparse.LInfDistance(stats.Result.Unpack(), want); d > 1e-12 {
		t.Fatalf("local QuerySet L∞ = %v", d)
	}
	// Over TCP.
	shards, _ := core.Split(s, 2)
	var machines []Machine
	for _, sh := range shards {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		go (&Server{Machine: &LocalMachine{Backend: sh}}).Serve(l)
		m, err := Dial(l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		machines = append(machines, m)
	}
	tc, err := NewCoordinator(machines...)
	if err != nil {
		t.Fatal(err)
	}
	tstats, err := tc.QuerySet(pref)
	if err != nil {
		t.Fatal(err)
	}
	if d := sparse.LInfDistance(tstats.Result.Unpack(), want); d > 1e-12 {
		t.Fatalf("TCP QuerySet L∞ = %v", d)
	}
	// Invalid preference propagates as a worker error, connection survives.
	if _, err := tc.QuerySet(core.Preference{}); err == nil {
		t.Fatal("empty preference should fail")
	}
	if _, err := tc.Query(1); err != nil {
		t.Fatalf("connection should survive set-query error: %v", err)
	}
}

func TestPreferenceCodecRoundTrip(t *testing.T) {
	p := core.Preference{Nodes: []int32{1, 99, 7}, Weights: []float64{0.5, 2, 1}}
	got, err := decodePreference(encodePreference(p))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Nodes) != 3 || got.Nodes[1] != 99 || got.Weights[1] != 2 {
		t.Fatalf("round trip: %+v", got)
	}
	// Uniform preference carries explicit 1.0 weights.
	u := core.Preference{Nodes: []int32{4, 5}}
	got, err = decodePreference(encodePreference(u))
	if err != nil {
		t.Fatal(err)
	}
	if got.Weights[0] != 1 || got.Weights[1] != 1 {
		t.Fatalf("uniform weights: %+v", got)
	}
	if _, err := decodePreference([]byte{1}); err == nil {
		t.Fatal("short frame should fail")
	}
	if _, err := decodePreference([]byte{1, 0, 0, 0, 9}); err == nil {
		t.Fatal("length mismatch should fail")
	}
}

package cluster

import (
	"bytes"
	"context"
	"net"
	"strings"
	"sync"
	"testing"

	"exactppr/internal/core"
	"exactppr/internal/graph"
	"exactppr/internal/sparse"
)

// fixedUpdater acknowledges every batch with the same stats.
type fixedUpdater struct{ stats UpdateStats }

func (f fixedUpdater) ApplyUpdates(context.Context, graph.Delta) (UpdateStats, error) {
	return f.stats, nil
}

// TestCoordinatorChecksUpdateDigests: workers report their own slice's
// recompute count, so equal counts no longer mean agreement. Two TCP
// workers whose batch digests differ are rejected even when their
// counts sum to a plausible total; equal digests sum the counts.
func TestCoordinatorChecksUpdateDigests(t *testing.T) {
	shards, err := core.Split(testStore(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	coord := func(acks ...UpdateStats) *Coordinator {
		var ms []Machine
		for i, ack := range acks {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			srv := &Server{Machine: &LocalMachine{Backend: shards[i]}, Updater: fixedUpdater{ack}}
			go srv.Serve(l)
			t.Cleanup(func() { l.Close() })
			m, err := Dial(l.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { m.Close() })
			ms = append(ms, m)
		}
		c, err := NewCoordinator(ms...)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	d := graph.Delta{Insert: [][2]int32{{1, 2}}}

	diverged := coord(
		UpdateStats{Inserted: 1, Recomputed: 40, Digest: 0xaaaa},
		UpdateStats{Inserted: 1, Recomputed: 38, Digest: 0xbbbb},
	)
	if _, err := diverged.ApplyUpdates(context.Background(), d); err == nil || !strings.Contains(err.Error(), "disagree") {
		t.Fatalf("diverged digests: err = %v, want a disagreement", err)
	}

	agreed := coord(
		UpdateStats{Inserted: 1, Recomputed: 40, Digest: 0xaaaa},
		UpdateStats{Inserted: 1, Recomputed: 38, Digest: 0xaaaa},
	)
	st, err := agreed.ApplyUpdates(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if st.Recomputed != 78 || st.Digest != 0xaaaa || st.Inserted != 1 {
		t.Fatalf("agreed stats = %+v, want the summed count 78", st)
	}
}

// TestNewLiveShardNarrowsStore: the LiveStore a worker is built over is
// narrowed to the worker's slice, so no second whole copy stays
// reachable through it, and batches keep it narrow.
func TestNewLiveShardNarrowsStore(t *testing.T) {
	s := testStore(t)
	whole := s.SpaceBytes()
	live := core.NewLiveStore(s)
	ls, err := NewLiveShard(live, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		sh := live.Store()
		if ls.Shard() != sh {
			t.Fatalf("%s: the worker does not serve the live store's snapshot", when)
		}
		for u := range sh.LeafPPV {
			if u%2 != 1 {
				t.Fatalf("%s: live store holds node %d's leaf vector, which belongs to shard 0 of 2", when, u)
			}
		}
		if b := sh.SpaceBytes(); b <= 0 || b >= whole {
			t.Fatalf("%s: worker holds %d of the whole store's %d bytes", when, b, whole)
		}
	}
	check("built")
	if _, err := ls.ApplyUpdates(context.Background(), graph.Delta{Insert: [][2]int32{{3, 200}}}); err != nil {
		t.Fatal(err)
	}
	check("after a batch")
	if _, err := NewLiveShard(live, 0, 2); err == nil {
		t.Fatal("a live store narrowed to shard 1 cannot serve shard 0")
	}
}

// FuzzUpdateFrames feeds arbitrary bytes to the decoders of the update
// frames: they must fail cleanly or decode a value whose encoding is
// the input itself (both layouts are fixed-width and canonical).
func FuzzUpdateFrames(f *testing.F) {
	f.Add(encodeDelta(graph.Delta{Insert: [][2]int32{{1, 2}, {3, 4}}, Delete: [][2]int32{{5, 6}}}))
	f.Add(encodeUpdateStats(UpdateStats{Inserted: 2, Deleted: 1, Recomputed: 9, Digest: 7}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if d, err := decodeDelta(data); err == nil && !bytes.Equal(encodeDelta(d), data) {
			t.Fatalf("delta %+v re-encodes differently", d)
		}
		if st, err := decodeUpdateStats(data); err == nil && !bytes.Equal(encodeUpdateStats(st), data) {
			t.Fatalf("update ack %+v re-encodes differently", st)
		}
	})
}

// TestLiveShardQueriesRaceBatches: shard-local workers keep answering
// while batches land — every share comes from one slice snapshot that
// holds all the vectors its fold needs, so no query fails (a slice that
// moved under an update would surface as core.ErrMissingVector) — and
// once the batches are in, the cluster answers the updated graph.
func TestLiveShardQueriesRaceBatches(t *testing.T) {
	const machines = 2
	var ms []Machine
	for i := 0; i < machines; i++ {
		ls, err := NewLiveShard(core.NewLiveStore(testStore(t)), i, machines)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, ls)
	}
	coord, err := NewCoordinator(ms...)
	if err != nil {
		t.Fatal(err)
	}
	oracle := core.NewLiveStore(testStore(t))
	batches := []graph.Delta{
		{Insert: [][2]int32{{3, 200}, {120, 4}, {7, 250}}},
		{Insert: [][2]int32{{250, 9}, {60, 180}}},
		{Delete: [][2]int32{{3, 200}}},
	}
	stop := make(chan struct{})
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(u int32) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := coord.Query(u); err != nil {
					errs <- err
					return
				}
				u = (u + 37) % 300
			}
		}(int32(w))
	}
	for _, d := range batches {
		if _, err := coord.ApplyUpdates(context.Background(), d); err != nil {
			t.Fatal(err)
		}
		if _, err := oracle.ApplyUpdates(d, 2); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("query racing a batch: %v", err)
	}
	for _, u := range []int32{3, 7, 60, 120, 250} {
		qs, err := coord.Query(u)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.Store().Query(u)
		if err != nil {
			t.Fatal(err)
		}
		if d := sparse.LInfDistance(qs.Result.Unpack(), want); d > 1e-9 {
			t.Fatalf("u=%d: post-batch L∞ = %v", u, d)
		}
	}
}

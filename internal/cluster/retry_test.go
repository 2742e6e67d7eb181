package cluster

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"

	"exactppr/internal/core"
	"exactppr/internal/graph"
	"exactppr/internal/sparse"
)

// failOnce is an updatable machine whose first batch fails before it
// reaches the store, as a batch does on a worker that is cut off
// mid-batch.
type failOnce struct {
	*LiveShard
	failed atomic.Bool
}

func (f *failOnce) ApplyUpdates(ctx context.Context, d graph.Delta) (UpdateStats, error) {
	if f.failed.CompareAndSwap(false, true) {
		return UpdateStats{}, errors.New("injected batch failure")
	}
	return f.LiveShard.ApplyUpdates(ctx, d)
}

// tornCluster returns a coordinator over two updatable slices of the
// test store, in process or behind TCP workers, whose machine 1 fails
// its first batch.
func tornCluster(t *testing.T, overTCP bool) *Coordinator {
	t.Helper()
	var ms []Machine
	for i := range 2 {
		live, err := NewLiveShard(core.NewLiveStore(testStore(t)), i, 2)
		if err != nil {
			t.Fatal(err)
		}
		var m interface {
			Machine
			Updater
		} = live
		if i == 1 {
			m = &failOnce{LiveShard: live}
		}
		if overTCP {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { l.Close() })
			go (&Server{Machine: live, Updater: m}).Serve(l)
			p, err := Dial(l.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { p.Close() })
			m = p
		}
		ms = append(ms, m)
	}
	c, err := NewCoordinator(ms...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// tornBatch inserts two edges the test store does not hold.
var tornBatch = graph.Delta{Insert: [][2]int32{{3, 200}, {120, 4}}}

// TestRetryHealsTornCluster: a batch that fails on machine 1 leaves
// machine 0 on the post-batch snapshot. The retry applies it afresh on
// machine 1 and finds it already applied on machine 0, so both end on
// one snapshot: the retry succeeds with the counts, digest and snapshot
// of one clean apply, and queries match a store that applied the batch
// once.
func TestRetryHealsTornCluster(t *testing.T) {
	oracle := core.NewLiveStore(testStore(t))
	want, err := oracle.ApplyUpdates(tornBatch, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		overTCP bool
	}{{"in-process", false}, {"tcp", true}} {
		t.Run(tc.name, func(t *testing.T) {
			coord := tornCluster(t, tc.overTCP)
			if _, err := coord.ApplyUpdates(context.Background(), tornBatch); err == nil {
				t.Fatal("the batch did not fail on machine 1")
			}
			st, err := coord.ApplyUpdates(context.Background(), tornBatch)
			if err != nil {
				t.Fatalf("retry: %v", err)
			}
			if st.Inserted != int64(want.Inserted) || st.Deleted != int64(want.Deleted) || st.Digest != want.Digest ||
				st.Epoch != want.Epoch || st.History != want.History {
				t.Fatalf("retry acked +%d −%d digest %016x at epoch %d history %016x; one clean apply: +%d −%d digest %016x at epoch %d history %016x",
					st.Inserted, st.Deleted, st.Digest, st.Epoch, st.History,
					want.Inserted, want.Deleted, want.Digest, want.Epoch, want.History)
			}
			for _, u := range []int32{0, 3, 120, 200, 299} {
				qs, err := coord.Query(u)
				if err != nil {
					t.Fatal(err)
				}
				v, err := oracle.Store().Query(u)
				if err != nil {
					t.Fatal(err)
				}
				if dist := sparse.LInfDistance(qs.Result.Unpack(), v); dist > 1e-9 {
					t.Fatalf("u=%d: healed cluster L∞ = %v from a store that applied the batch once", u, dist)
				}
			}
		})
	}
}

// TestTornClusterRefusesOtherBatch: after a torn batch, a different
// batch is no retry. A subset of the torn one changes nothing on
// machine 0 but applies on machine 1, which leaves the two on different
// snapshots, and the agreement check refuses it.
func TestTornClusterRefusesOtherBatch(t *testing.T) {
	coord := tornCluster(t, false)
	if _, err := coord.ApplyUpdates(context.Background(), tornBatch); err == nil {
		t.Fatal("the batch did not fail on machine 1")
	}
	subset := graph.Delta{Insert: tornBatch.Insert[:1]}
	if _, err := coord.ApplyUpdates(context.Background(), subset); err == nil || !strings.Contains(err.Error(), "disagree") {
		t.Fatalf("a subset of the torn batch: err = %v, want a disagreement", err)
	}
}

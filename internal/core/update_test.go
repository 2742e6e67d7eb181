package core

import (
	"errors"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"exactppr/internal/gen"
	"exactppr/internal/graph"
	"exactppr/internal/hierarchy"
	"exactppr/internal/ppr"
	"exactppr/internal/sparse"
)

// updateParams are tight enough that two exact constructions over
// DIFFERENT hierarchies of the same graph agree within 1e-9: the only
// divergence is each construction's ε-driven truncation.
func updateParams() ppr.Params { return ppr.Params{Alpha: 0.15, Eps: 1e-13} }

func updateGraph(t *testing.T, seed int64) *graph.Graph {
	t.Helper()
	g, err := gen.Community(gen.Config{
		Nodes: 120, AvgOutDegree: 3, Communities: 3,
		InterFrac: 0.05, MinOutDegree: 1, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// rebuildFromEdges reconstructs an independent graph equal to g's
// current edge set — the input a from-scratch build would see.
func rebuildFromEdges(g *graph.Graph) *graph.Graph {
	b := graph.NewBuilder(g.NumNodes())
	for u := int32(0); u < int32(g.NumNodes()); u++ {
		for _, v := range g.Out(u) {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

func randomDelta(rng *rand.Rand, g *graph.Graph, ops int) graph.Delta {
	var d graph.Delta
	n := int32(g.NumNodes())
	for i := 0; i < ops; i++ {
		u, v := rng.Int31n(n), rng.Int31n(n)
		if u == v {
			continue
		}
		if g.HasEdge(u, v) {
			d.Delete = append(d.Delete, [2]int32{u, v})
		} else {
			d.Insert = append(d.Insert, [2]int32{u, v})
		}
	}
	return d
}

// TestApplyUpdatesEquivalentToRebuild is the acceptance check of the
// incremental pipeline: after every one of 20+ random edge-delta
// batches, the incrementally maintained store answers Query and
// QuerySet identically (within 1e-9) to a from-scratch BuildHGPA of the
// updated graph, while recomputing strictly fewer vectors than the
// rebuild would.
func TestApplyUpdatesEquivalentToRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	g := updateGraph(t, 17)
	opts := hierarchy.Options{Seed: 23}
	s, err := BuildHGPA(g, opts, updateParams(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for batch := 0; batch < 22; batch++ {
		d := randomDelta(rng, s.H.G, 1+rng.Intn(4))
		if d.Len() == 0 {
			continue
		}
		ns, info, err := s.ApplyUpdates(d, 2)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		if info.Inserted+info.Deleted > 0 {
			if info.Recomputed <= 0 {
				t.Fatalf("batch %d: nothing recomputed for an effective delta", batch)
			}
			if info.Recomputed >= info.StoreVectors {
				t.Fatalf("batch %d: recomputed %d of %d vectors — no better than a rebuild",
					batch, info.Recomputed, info.StoreVectors)
			}
		}
		if err := ns.H.Validate(); err != nil {
			t.Fatalf("batch %d: hierarchy invalid: %v", batch, err)
		}

		fresh, err := BuildHGPA(rebuildFromEdges(ns.H.G), opts, updateParams(), 2)
		if err != nil {
			t.Fatalf("batch %d: rebuild: %v", batch, err)
		}
		queries := []int32{0, 40, 81, 119}
		for _, hubs := range [][]int32{{}, ns.H.Root.Hubs} {
			for _, h := range hubs {
				queries = append(queries, h) // hub queries are the regression-prone cases
			}
		}
		for _, u := range queries {
			got, err := ns.Query(u)
			if err != nil {
				t.Fatalf("batch %d u=%d: %v", batch, u, err)
			}
			want, err := fresh.Query(u)
			if err != nil {
				t.Fatalf("batch %d u=%d: %v", batch, u, err)
			}
			if dist := sparse.LInfDistance(got, want); dist > 1e-9 {
				t.Fatalf("batch %d u=%d: incremental vs rebuild L∞ = %v", batch, u, dist)
			}
		}
		pref := Preference{Nodes: []int32{queries[0], queries[1], queries[2]}, Weights: []float64{3, 1, 2}}
		got, err := ns.QuerySet(pref)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		want, err := fresh.QuerySet(pref)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		if dist := sparse.LInfDistance(got, want); dist > 1e-9 {
			t.Fatalf("batch %d: QuerySet incremental vs rebuild L∞ = %v", batch, dist)
		}
		s = ns
	}
}

// TestApplyUpdatesShardsStayExact: after updates the shard
// decomposition of the new store still sums exactly to the central
// answer — what the distributed serving path relies on.
func TestApplyUpdatesShardsStayExact(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	g := updateGraph(t, 29)
	s, err := BuildHGPA(g, hierarchy.Options{Seed: 31}, updateParams(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for batch := 0; batch < 4; batch++ {
		ns, _, err := s.ApplyUpdates(randomDelta(rng, s.H.G, 3), 2)
		if err != nil {
			t.Fatal(err)
		}
		s = ns
	}
	shards, err := Split(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []int32{2, 60, 117} {
		want, err := s.Query(u)
		if err != nil {
			t.Fatal(err)
		}
		sum := sparse.New(64)
		for _, sh := range shards {
			v, err := sh.Query(u)
			if err != nil {
				t.Fatal(err)
			}
			sum.AddScaled(v, 1)
		}
		if d := sparse.LInfDistance(sum, want); d > 1e-12 {
			t.Fatalf("u=%d: shard sum L∞ = %v after updates", u, d)
		}
	}
}

// TestUpdatedStoreRoundTrips: a store file carries the graph epoch,
// the tree and its deal ranks, so an update-maintained store — hub
// promotions and all — saves, loads and splits into the shares, ranks
// and epoch of the store it was saved from, and the next batch lands on
// the loaded copy exactly as on the original.
func TestUpdatedStoreRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	s, err := BuildHGPA(updateGraph(t, 17), hierarchy.Options{Seed: 23}, updateParams(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for promoting := 0; promoting < 3; {
		if s.H.G.Epoch() == 200 {
			t.Fatalf("only %d of 200 batches promoted a hub", promoting)
		}
		ns, info, err := s.ApplyUpdates(randomDelta(rng, s.H.G, 4), 2)
		if err != nil {
			t.Fatal(err)
		}
		if info.Promoted > 0 {
			promoting++
		}
		s = ns
	}
	path := filepath.Join(t.TempDir(), "u.store")
	if err := SaveFile(path, s); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.H.G.Epoch() != s.H.G.Epoch() {
		t.Fatalf("loaded epoch %d, saved %d", loaded.H.G.Epoch(), s.H.G.Epoch())
	}
	n := s.H.G.NumNodes()
	for u := range int32(n) {
		if loaded.H.DealRank(u) != s.H.DealRank(u) {
			t.Fatalf("id %d: loaded deal rank %d, saved %d", u, loaded.H.DealRank(u), s.H.DealRank(u))
		}
	}
	want, err := Split(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Split(loaded, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		local, err := LoadShard(path, i, 2)
		if err != nil {
			t.Fatal(err)
		}
		w := packedStreamDigest(t, n, want[i].QueryPacked)
		if g, l := packedStreamDigest(t, n, got[i].QueryPacked), packedStreamDigest(t, n, local.QueryPacked); g != w || l != w {
			t.Fatalf("shard %d/2: loaded-and-split digest %s, shard load %s, saved store %s", i, g, l, w)
		}
	}
	if g, w := packedStreamDigest(t, n, loaded.QueryPacked), packedStreamDigest(t, n, s.QueryPacked); g != w {
		t.Fatalf("whole store: loaded digest %s, saved %s", g, w)
	}
	d := randomDelta(rng, s.H.G, 4)
	_, wantInfo, err := s.ApplyUpdates(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, gotInfo, err := loaded.ApplyUpdates(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	if wantInfo.Inserted+wantInfo.Deleted == 0 || gotInfo.Digest != wantInfo.Digest {
		t.Fatalf("next batch (%d inserts, %d deletes): loaded store digest %x, saved store %x",
			wantInfo.Inserted, wantInfo.Deleted, gotInfo.Digest, wantInfo.Digest)
	}
}

// TestLiveStoreSnapshotIsolation: queries racing ApplyUpdates always
// see one coherent snapshot — a captured *Store answers
// deterministically while batches land, and the published pointer only
// ever moves to a fully recomputed store. Run under -race in CI.
func TestLiveStoreSnapshotIsolation(t *testing.T) {
	g := updateGraph(t, 41)
	s, err := BuildHGPA(g, hierarchy.Options{Seed: 43}, ppr.Params{Alpha: 0.15, Eps: 1e-8}, 2)
	if err != nil {
		t.Fatal(err)
	}
	live := NewLiveStore(s)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := live.Store()
				u := rng.Int31n(int32(snap.H.G.NumNodes()))
				a, err := snap.Query(u)
				if err != nil {
					errCh <- err
					return
				}
				b, err := snap.Query(u)
				if err != nil {
					errCh <- err
					return
				}
				if sparse.LInfDistance(a, b) != 0 {
					errCh <- errors.New("snapshot answered non-deterministically")
					return
				}
			}
		}(int64(w))
	}
	rng := rand.New(rand.NewSource(99))
	for batch := 0; batch < 6; batch++ {
		if _, err := live.ApplyUpdates(randomDelta(rng, live.Store().H.G, 3), 2); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

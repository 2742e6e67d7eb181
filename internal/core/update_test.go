package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
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

// TestFailedBatchCanBeRetried: a batch whose recompute fails publishes
// nothing and leaves the snapshot's graph as it was, so the batch can
// be applied again — here to a store whose kernels are not capped, and
// the result matches a rebuild of the updated graph.
func TestFailedBatchCanBeRetried(t *testing.T) {
	opts := hierarchy.Options{Seed: 23}
	s, err := BuildHGPA(updateGraph(t, 17), opts, updateParams(), 2)
	if err != nil {
		t.Fatal(err)
	}
	capped := s.Clone()
	capped.Params.MaxIter = 1
	live := NewLiveStore(capped)
	d := randomDelta(rand.New(rand.NewSource(5)), s.H.G, 6)
	edges := rebuildFromEdges(s.H.G)
	for range 2 {
		if _, err := live.ApplyUpdates(d, 2); !errors.Is(err, ppr.ErrPushCap) {
			t.Fatalf("capped batch: err = %v, want ppr.ErrPushCap", err)
		}
		if got := live.Store(); got != capped || got.H.G != s.H.G || got.H.G.Epoch() != 0 {
			t.Fatalf("a failed batch moved the live store: epoch 0 -> %d", got.H.G.Epoch())
		}
	}
	for u := range int32(s.H.G.NumNodes()) {
		if !slices.Equal(s.H.G.Out(u), edges.Out(u)) {
			t.Fatalf("a failed batch changed node %d's out-edges to %v, want %v", u, s.H.G.Out(u), edges.Out(u))
		}
	}

	ns, info, err := s.ApplyUpdates(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	if info.Inserted+info.Deleted == 0 || ns.H.G.Epoch() != 1 {
		t.Fatalf("retried batch: %d inserts, %d deletes, epoch %d; want an effective batch at epoch 1",
			info.Inserted, info.Deleted, ns.H.G.Epoch())
	}
	fresh, err := BuildHGPA(rebuildFromEdges(ns.H.G), opts, updateParams(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for u := range int32(ns.H.G.NumNodes()) {
		got, err := ns.Query(u)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Query(u)
		if err != nil {
			t.Fatal(err)
		}
		if dist := sparse.LInfDistance(got, want); dist > 1e-9 {
			t.Fatalf("u=%d: retried batch vs rebuild L∞ = %v", u, dist)
		}
	}
}

// TestSplitSlicesEachAbsorbBatch: the slices of one Split share the
// whole store's graph, and each applies the same batch as the whole
// store does: the same digest and edge counts, recompute counts that
// sum to the whole store's, and shares that sum to its answers.
func TestSplitSlicesEachAbsorbBatch(t *testing.T) {
	s, err := BuildHGPA(updateGraph(t, 29), hierarchy.Options{Seed: 31}, updateParams(), 2)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := Split(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	d := randomDelta(rand.New(rand.NewSource(8)), s.H.G, 6)
	whole, want, err := s.ApplyUpdates(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want.Inserted+want.Deleted == 0 {
		t.Fatal("the batch changes no edge")
	}
	recomputed := 0
	for i, sh := range shards {
		if sh.H.G != s.H.G {
			t.Fatalf("slice %d has a graph of its own", i)
		}
		ns, got, err := sh.ApplyUpdates(d, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got.Digest != want.Digest || got.Inserted != want.Inserted || got.Deleted != want.Deleted {
			t.Fatalf("slice %d: +%d −%d digest %016x; whole store +%d −%d digest %016x",
				i, got.Inserted, got.Deleted, got.Digest, want.Inserted, want.Deleted, want.Digest)
		}
		recomputed += got.Recomputed
		shards[i] = ns
	}
	if recomputed != want.Recomputed {
		t.Fatalf("slices recomputed %d vectors in all, the whole store %d", recomputed, want.Recomputed)
	}
	for _, u := range []int32{2, 60, 117} {
		w, err := whole.Query(u)
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
		if dist := sparse.LInfDistance(sum, w); dist > 1e-12 {
			t.Fatalf("u=%d: updated slices' shares sum to L∞ %v from the updated store", u, dist)
		}
	}
}

// TestPreBatchSnapshotReadableDuringBatches: a snapshot taken before
// any batch saves to the same bytes and yields the same power-iteration
// vectors while a LiveStore applies batches on top of it: no batch
// writes its graph. Run under -race in CI.
func TestPreBatchSnapshotReadableDuringBatches(t *testing.T) {
	g := updateGraph(t, 41)
	s, err := BuildHGPA(g, hierarchy.Options{Seed: 43}, ppr.Params{Alpha: 0.15, Eps: 1e-8}, 2)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := Save(&want, s); err != nil {
		t.Fatal(err)
	}
	params := ppr.Params{Alpha: 0.15, Eps: 1e-10}
	wantPPV, err := ppr.PowerIteration(g, 7, params)
	if err != nil {
		t.Fatal(err)
	}

	// Readers run from before the first batch until after the last.
	read := func() error {
		var got bytes.Buffer
		if err := Save(&got, s); err != nil {
			return err
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			return errors.New("the pre-batch snapshot saved to different bytes")
		}
		ppv, err := ppr.PowerIteration(g, 7, params)
		if err != nil {
			return err
		}
		if dist := sparse.LInfDistance(ppv, wantPPV); dist != 0 {
			return fmt.Errorf("power iteration on the pre-batch graph moved by L∞ %v", dist)
		}
		return nil
	}
	stop, started := make(chan struct{}), make(chan struct{})
	errCh := make(chan error, 1)
	go func() {
		defer close(errCh)
		for reads := 0; ; reads++ {
			if err := read(); err != nil {
				errCh <- fmt.Errorf("read %d: %w", reads, err)
				return
			}
			if reads == 0 {
				close(started)
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	select {
	case <-started:
	case err := <-errCh:
		t.Fatal(err)
	}
	live := NewLiveStore(s)
	rng := rand.New(rand.NewSource(99))
	for range 6 {
		if _, err := live.ApplyUpdates(randomDelta(rng, live.Store().H.G, 3), 2); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if live.Store().H.G.Epoch() == 0 {
		t.Fatal("no batch changed the graph")
	}
}

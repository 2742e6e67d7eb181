package core

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"

	"exactppr/internal/hierarchy"
	"exactppr/internal/ppr"
	"exactppr/internal/sparse"
)

// TestMissingVectorIsTypedError: a fold that needs a vector its source
// does not hold used to add a zero vector and answer silently wrong. It
// must fail with ErrMissingVector instead, on every source.
func TestMissingVectorIsTypedError(t *testing.T) {
	s, ds := diskStoreFixture(t)
	defer ds.Close()
	var buf bytes.Buffer
	if err := Save(&buf, s); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var leaf, hub int32 = -1, -1
	for u := int32(0); u < int32(loaded.H.G.NumNodes()); u++ {
		if loaded.H.IsHub(u) && hub < 0 {
			hub = u
		} else if !loaded.H.IsHub(u) && leaf < 0 {
			leaf = u
		}
	}
	loaded.LeafPPV = withoutVector(t, loaded.LeafPPV, leaf)
	if _, err := loaded.QueryPacked(leaf); !errors.Is(err, ErrMissingVector) {
		t.Fatalf("query of node %d without its leaf vector: err = %v, want ErrMissingVector", leaf, err)
	}
	loaded.HubPartial = withoutVector(t, loaded.HubPartial, hub)
	if _, err := loaded.Query(hub); !errors.Is(err, ErrMissingVector) {
		t.Fatalf("query of hub %d without its partial: err = %v, want ErrMissingVector", hub, err)
	}
	loaded.Skeleton = withoutVector(t, loaded.Skeleton, hub)
	shards, err := Split(loaded, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shards[loaded.H.DealRank(hub)%2].QueryPacked(hub); !errors.Is(err, ErrMissingVector) {
		t.Fatalf("shard query of hub %d without its skeleton: err = %v, want ErrMissingVector", hub, err)
	}

	ds.idx[secLeafPPV][leaf] = 0
	if _, err := ds.QueryPacked(leaf); !errors.Is(err, ErrMissingVector) {
		t.Fatalf("disk query of node %d without its leaf record: err = %v, want ErrMissingVector", leaf, err)
	}

	jw, err := PrecomputeJW(loaded.H.G, 4, ppr.Params{Alpha: 0.15, Eps: 1e-4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	jwLeaf := int32(0)
	for jw.hubMask[jwLeaf] {
		jwLeaf++
	}
	jw.Partial = withoutVector(t, jw.Partial, jwLeaf)
	if _, err := jw.Query(jwLeaf); !errors.Is(err, ErrMissingVector) {
		t.Fatalf("JW query without the partial of %d: err = %v, want ErrMissingVector", jwLeaf, err)
	}
}

// TestDealRanksStableAcrossUpdates: a batch that promotes a node into a
// hub set must not move any existing hub to another machine — the
// slices of shard-local workers stay the same across updates — and a
// promoted hub is dealt after every existing one. Dealing by position
// in the Nodes()×Hubs order moved every hub behind the promotion.
func TestDealRanksStableAcrossUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s, err := BuildHGPA(updateGraph(t, 17), hierarchy.Options{Seed: 23}, ppr.Params{Alpha: 0.15, Eps: 1e-6}, 2)
	if err != nil {
		t.Fatal(err)
	}
	owners := func(s *Store, n int) map[int32]int {
		shards, err := Split(s, n)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[int32]int)
		for i, sh := range shards {
			for h := range sh.HubPartial.All() {
				out[h] = i
			}
		}
		return out
	}
	for batch := 0; ; batch++ {
		if batch == 50 {
			t.Fatal("no batch promoted a hub")
		}
		before := map[int]map[int32]int{2: owners(s, 2), 3: owners(s, 3)}
		ns, info, err := s.ApplyUpdates(randomDelta(rng, s.H.G, 4), 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := ns.H.Validate(); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		for n, old := range before {
			now := owners(ns, n)
			for h, i := range old {
				if now[h] != i {
					t.Fatalf("batch %d: hub %d moved from machine %d to %d of %d", batch, h, i, now[h], n)
				}
			}
		}
		maxOld := -1
		for u := int32(0); u < int32(s.H.G.NumNodes()); u++ {
			maxOld = max(maxOld, s.H.DealRank(u))
		}
		for u := int32(0); u < int32(ns.H.G.NumNodes()); u++ {
			if wasHub, r := s.H.IsHub(u), ns.H.DealRank(u); wasHub && r != s.H.DealRank(u) {
				t.Fatalf("batch %d: hub %d changed rank %d → %d", batch, u, s.H.DealRank(u), r)
			} else if !wasHub && ns.H.IsHub(u) && r <= maxOld {
				t.Fatalf("batch %d: promoted hub %d has rank %d, not after the existing %d", batch, u, r, maxOld)
			}
		}
		s = ns
		if info.Promoted > 0 {
			return
		}
	}
}

// TestShardLocalUpdatesMatchSplit: workers that each load only their
// slice and apply every batch to it stay byte-identical to the slice of
// an incrementally updated whole store, recompute disjoint parts of its
// dirty set, and agree on the batch digest.
func TestShardLocalUpdatesMatchSplit(t *testing.T) {
	base, err := BuildHGPA(updateGraph(t, 17), hierarchy.Options{Seed: 23}, updateParams(), 2)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "u.store")
	if err := SaveFile(path, base); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 3} {
		whole, err := LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		workers := make([]*Store, n)
		for i := range workers {
			if workers[i], err = LoadShard(path, i, n); err != nil {
				t.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(int64(100 + n)))
		promoted := 0
		for batch := 0; batch < 22; batch++ {
			d := randomDelta(rng, whole.H.G, 1+rng.Intn(4))
			nw, want, err := whole.ApplyUpdates(d, 2)
			if err != nil {
				t.Fatal(err)
			}
			whole = nw
			promoted += want.Promoted
			recomputed := 0
			for i, w := range workers {
				nw, info, err := w.ApplyUpdates(d, 2)
				if err != nil {
					t.Fatal(err)
				}
				if info.Digest != want.Digest {
					t.Fatalf("n=%d batch %d: worker %d digest %x, whole store %x", n, batch, i, info.Digest, want.Digest)
				}
				recomputed += info.Recomputed
				workers[i] = nw
			}
			if recomputed != want.Recomputed {
				t.Fatalf("n=%d batch %d: workers recomputed %d vectors, whole store %d", n, batch, recomputed, want.Recomputed)
			}
			shards, err := Split(whole, n)
			if err != nil {
				t.Fatal(err)
			}
			for i, w := range workers {
				if o := w.own; o.index != i || o.total != n {
					t.Fatalf("worker %d serves shard %d of %d", i, o.index, o.total)
				}
				for u := int32(0); u < int32(whole.H.G.NumNodes()); u++ {
					a, err := w.QueryPacked(u)
					if err != nil {
						t.Fatalf("n=%d batch %d worker %d u=%d: %v", n, batch, i, u, err)
					}
					b, err := shards[i].QueryPacked(u)
					if err != nil {
						t.Fatal(err)
					}
					if string(sparse.EncodePacked(a)) != string(sparse.EncodePacked(b)) {
						t.Fatalf("n=%d batch %d worker %d u=%d: share differs from the split whole store", n, batch, i, u)
					}
				}
			}
		}
		if promoted == 0 {
			t.Fatalf("n=%d: no batch promoted a hub; the fixture no longer exercises rank dealing", n)
		}
	}
}

// TestShardLocalStoreRefusesResplitAndSave: a shard-local store (or a
// disk slice) holds a slice, so splitting it again or writing it as a
// whole store file would silently drop the other machines' vectors.
func TestShardLocalStoreRefusesResplitAndSave(t *testing.T) {
	s, ds := diskStoreFixture(t)
	defer ds.Close()
	shards, err := Split(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	local := shards[1]
	if _, err := Split(local, 2); err == nil {
		t.Fatal("re-splitting a shard-local store must fail")
	}
	if err := Save(&bytes.Buffer{}, local); err == nil {
		t.Fatal("saving a shard-local store must fail")
	}
	if o := local.own; o == nil || o.index != 1 || o.total != 2 {
		t.Fatalf("Split's slice 1 of 2 holds %+v", o)
	}
	views, err := SplitDisk(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SplitDisk(views[1], 2); err == nil {
		t.Fatal("re-splitting a disk slice must fail")
	}
	live := NewLiveStore(s)
	if err := live.Narrow(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := live.Narrow(1, 2); err != nil {
		t.Fatalf("narrowing to the slice already held: %v", err)
	}
	if err := live.Narrow(0, 2); err == nil {
		t.Fatal("narrowing shard 1 of 2 to shard 0 must fail")
	}
	if _, err := LoadShard("unused", 2, 2); err == nil {
		t.Fatal("LoadShard of a shard that does not exist must fail")
	}
}

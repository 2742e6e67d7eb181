package core

import (
	"bytes"
	"reflect"
	"sort"
	"testing"

	"exactppr/internal/hierarchy"
	"exactppr/internal/sparse"
)

// TestQueryPackedMatchesQuery: the columnar drain and the map drain are
// two views of the same accumulator fold.
func TestQueryPackedMatchesQuery(t *testing.T) {
	g := testGraph(t, 21)
	s := buildStore(t, g, hierarchy.Options{Seed: 22})
	for _, u := range sampleQueries(s) {
		v, err := s.Query(u)
		if err != nil {
			t.Fatal(err)
		}
		p, err := s.QueryPacked(u)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p.Unpack(), v) {
			t.Fatalf("u=%d: QueryPacked differs from Query", u)
		}
		es := p.Entries()
		if !sort.SliceIsSorted(es, func(a, b int) bool { return es[a].ID < es[b].ID }) {
			t.Fatalf("u=%d: QueryPacked not sorted", u)
		}
	}
	if _, err := s.QueryPacked(int32(g.NumNodes() + 5)); err == nil {
		t.Fatal("QueryPacked accepted out-of-range node")
	}
}

// TestShardPackedMatchesVector: same for the per-machine share folds,
// single-node and preference-set alike.
func TestShardPackedMatchesVector(t *testing.T) {
	g := testGraph(t, 23)
	s := buildStore(t, g, hierarchy.Options{Seed: 24})
	shards, err := Split(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	pref := Preference{Nodes: []int32{1, 7, 42}, Weights: []float64{1, 2, 3}}
	for i, sh := range shards {
		for _, u := range sampleQueries(s) {
			v, err := sh.Query(u)
			if err != nil {
				t.Fatal(err)
			}
			p, err := sh.QueryPacked(u)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(p.Unpack(), v) {
				t.Fatalf("shard %d u=%d: packed share differs", i, u)
			}
		}
		v, err := sh.QuerySet(pref)
		if err != nil {
			t.Fatal(err)
		}
		p, err := sh.QuerySetPacked(pref)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p.Unpack(), v) {
			t.Fatalf("shard %d: packed set share differs", i)
		}
	}
}

// TestQueryTopKMatchesFullSort: the accumulator's bounded-heap top-k
// agrees with draining everything and sorting.
func TestQueryTopKMatchesFullSort(t *testing.T) {
	g := testGraph(t, 25)
	s := buildStore(t, g, hierarchy.Options{Seed: 26})
	for _, u := range sampleQueries(s) {
		full, err := s.Query(u)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 10, 1 << 20} {
			got, err := s.QueryTopK(u, k)
			if err != nil {
				t.Fatal(err)
			}
			want := full.TopK(k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("u=%d k=%d: QueryTopK %v, want %v", u, k, got, want)
			}
		}
	}
}

// TestSaveDeterministic: with canonical vector encoding and sorted
// section keys, saving the same store twice yields identical bytes.
func TestSaveDeterministic(t *testing.T) {
	g := testGraph(t, 27)
	s := buildStore(t, g, hierarchy.Options{Seed: 28})
	var a, b bytes.Buffer
	if err := Save(&a, s); err != nil {
		t.Fatal(err)
	}
	if err := Save(&b, s); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("Save is nondeterministic")
	}
	// And a loaded copy re-saves to the same bytes (decode/encode is a
	// fixed point for canonical files).
	loaded, err := Load(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var c bytes.Buffer
	if err := Save(&c, loaded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("save → load → save changed the bytes")
	}
}

// TestLoadRejectsOutOfRangeIds: a store file whose vector payload
// carries a node id outside the graph must fail to load with an error,
// not crash the first query that folds it into a dense accumulator.
func TestLoadRejectsOutOfRangeIds(t *testing.T) {
	g := testGraph(t, 31)
	s := buildStore(t, g, hierarchy.Options{Seed: 32})
	var buf bytes.Buffer
	if err := Save(&buf, s); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	if _, err := Load(bytes.NewReader(good)); err != nil {
		t.Fatal(err)
	}

	// Poison one leaf vector with ids the graph cannot have and re-save;
	// the poisoned file must be rejected at load, both by the in-memory
	// loader and by the disk-store opener (which indexes the same bytes).
	for _, id := range []int32{int32(g.NumNodes()), 1<<31 - 1, -7} {
		bad := s.Clone()
		var key int32
		var vec sparse.Packed
		for key, vec = range bad.LeafPPV.All() {
			break
		}
		ents := append(vec.Entries(), sparse.Entry{ID: id, Score: 0.125})
		poisoned, err := sparse.PackEntries(ents)
		if err != nil {
			t.Fatal(err)
		}
		bad.LeafPPV = withVector(t, bad.LeafPPV, key, poisoned)
		var badBuf bytes.Buffer
		if err := Save(&badBuf, bad); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(bytes.NewReader(badBuf.Bytes())); err == nil {
			t.Fatalf("Load accepted a vector entry with id %d on a %d-node graph", id, g.NumNodes())
		}
	}
}

// TestTruncatePacked: Truncate drops exactly the below-threshold entries
// and SpaceBytes shrinks accordingly, matching the map-era semantics.
func TestTruncatePacked(t *testing.T) {
	g := testGraph(t, 29)
	s := buildStore(t, g, hierarchy.Options{Seed: 30})
	const min = 1e-4
	var expect int
	for _, m := range []Table{s.HubPartial, s.Skeleton, s.LeafPPV} {
		for _, v := range m.All() {
			for _, e := range v.Entries() {
				if e.Score < min && e.Score > -min {
					expect++
				}
			}
		}
	}
	before := s.SpaceBytes()
	dropped := s.Truncate(min)
	if dropped != expect {
		t.Fatalf("Truncate dropped %d, want %d", dropped, expect)
	}
	if got := s.SpaceBytes(); got != before-int64(12*dropped) {
		t.Fatalf("SpaceBytes %d after dropping %d entries from %d", got, dropped, before)
	}
	for _, m := range []Table{s.HubPartial, s.Skeleton, s.LeafPPV} {
		for key, v := range m.All() {
			for _, e := range v.Entries() {
				if e.Score < min && e.Score > -min {
					t.Fatalf("entry %v survived Truncate in vector %d", e, key)
				}
			}
		}
	}
}

package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"exactppr/internal/hierarchy"
	"exactppr/internal/sparse"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	g := testGraph(t, 40)
	s, err := BuildHGPA(g, hierarchy.Options{Seed: 21}, tightParams(), 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, s); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.H.G.NumNodes() != g.NumNodes() || loaded.H.G.NumEdges() != g.NumEdges() {
		t.Fatal("graph not restored")
	}
	if loaded.Params != s.Params {
		t.Fatalf("params: %+v vs %+v", loaded.Params, s.Params)
	}
	if loaded.HubPartial.Len() != s.HubPartial.Len() ||
		loaded.Skeleton.Len() != s.Skeleton.Len() ||
		loaded.LeafPPV.Len() != s.LeafPPV.Len() {
		t.Fatal("vector sections not restored")
	}
	// Queries through the loaded store must be bit-identical.
	for _, u := range []int32{0, 99, 399} {
		want, err := s.Query(u)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.Query(u)
		if err != nil {
			t.Fatal(err)
		}
		if d := sparse.LInfDistance(got, want); d != 0 {
			t.Fatalf("u=%d: loaded store differs, L∞ = %v", u, d)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	g := testGraph(t, 41)
	s, err := BuildGPA(g, 3, tightParams(), 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "store.bin")
	if err := SaveFile(path, s); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := s.Query(7)
	got, _ := loaded.Query(7)
	if d := sparse.LInfDistance(got, want); d != 0 {
		t.Fatalf("file round trip differs: %v", d)
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.bin")); err == nil {
		t.Fatal("missing file should fail")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a store"))); err == nil {
		t.Fatal("bad magic should fail")
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input should fail")
	}
	// Truncated after a valid magic.
	if _, err := Load(bytes.NewReader(storeMagic[:])); err == nil {
		t.Fatal("truncated header should fail")
	}
}

// TestLoadedStoresOwnTheirVectors: LoadFile and LoadShard copy their
// vectors out of the mapped file and release it, so emptying the file
// afterwards changes nothing. A store that aliased the mapping would
// fault (SIGBUS) reading a page past the truncated end.
func TestLoadedStoresOwnTheirVectors(t *testing.T) {
	s, _ := diskStoreFixture(t)
	path := filepath.Join(t.TempDir(), "s.store")
	if err := SaveFile(path, s); err != nil {
		t.Fatal(err)
	}
	whole, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var local [2]*Store
	for i := range local {
		if local[i], err = LoadShard(path, i, 2); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	split, err := Split(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	for u := range int32(s.H.G.NumNodes()) {
		for _, pair := range [][2]*Store{{whole, s}, {local[0], split[0]}, {local[1], split[1]}} {
			got, err := pair[0].QueryPacked(u)
			if err != nil {
				t.Fatal(err)
			}
			want, err := pair[1].QueryPacked(u)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sparse.EncodePacked(got), sparse.EncodePacked(want)) {
				t.Fatalf("u=%d: loaded share differs from the in-memory store's", u)
			}
		}
	}
}

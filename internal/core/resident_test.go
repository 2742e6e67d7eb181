package core

import (
	"path/filepath"
	"testing"

	"exactppr/internal/gen"
	"exactppr/internal/hierarchy"
	"exactppr/internal/ppr"
)

// residentCeilings bounds Store.ResidentBytes of each heap worker's
// slice of the serving fixture (web×1, seed 1, hierarchy seed 1,
// α=0.15, ε=1e-4) as LoadShard loads it, by split width -of. It is a
// deterministic count: the build is deterministic, and the count reads
// capacities. Loading slice 1 of 2 grows the live heap by 3.52 MB; it
// grew it by 4.35 MB when each section was a map holding every vector
// in arrays of its own.
var residentCeilings = map[int]int64{1: 6_091_000, 2: 3_475_000}

// TestResidentBytesPerWorker holds the heap each web×1 worker slice
// keeps under its committed ceiling, at -of 1 and 2: a change may
// lower a ceiling, not raise a count past it unnoticed.
func TestResidentBytesPerWorker(t *testing.T) {
	g, err := gen.Dataset("web", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := BuildHGPA(g, hierarchy.Options{Seed: 1}, ppr.Params{Alpha: 0.15, Eps: 1e-4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "web.store")
	if err := SaveFile(path, s); err != nil {
		t.Fatal(err)
	}
	for _, of := range []int{1, 2} {
		for i := range of {
			sl, err := LoadShard(path, i, of)
			if err != nil {
				t.Fatal(err)
			}
			b := sl.ResidentBytes()
			t.Logf("shard %d of %d: %d resident bytes (%d in vectors)", i, of, b, sl.SpaceBytes())
			if b > residentCeilings[of] {
				t.Errorf("shard %d of %d keeps %d resident bytes, ceiling %d", i, of, b, residentCeilings[of])
			}
		}
	}
}

package core

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"exactppr/internal/gen"
	"exactppr/internal/hierarchy"
	"exactppr/internal/ppr"
)

// webStore is the serving fixture's store file, built once per run.
var webStore struct {
	once sync.Once
	data []byte
	err  error
}

// webStoreFile writes the serving fixture's store (web×1, seed 1,
// hierarchy seed 1, α=0.15, ε=1e-4) to a file of t's and returns its
// path.
func webStoreFile(t *testing.T) string {
	t.Helper()
	webStore.once.Do(func() {
		g, err := gen.Dataset("web", 1, 1)
		if err != nil {
			webStore.err = err
			return
		}
		s, err := BuildHGPA(g, hierarchy.Options{Seed: 1}, ppr.Params{Alpha: 0.15, Eps: 1e-4}, 0)
		if err != nil {
			webStore.err = err
			return
		}
		var buf bytes.Buffer
		webStore.err = Save(&buf, s)
		webStore.data = buf.Bytes()
	})
	if webStore.err != nil {
		t.Fatal(webStore.err)
	}
	path := filepath.Join(t.TempDir(), "web.store")
	if err := os.WriteFile(path, webStore.data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// residentCeilings bounds Store.ResidentBytes of each heap worker's
// slice of the serving fixture (web×1, seed 1, hierarchy seed 1,
// α=0.15, ε=1e-4) as LoadShard loads it, by split width -of. It is a
// deterministic count: the build is deterministic, and the count reads
// capacities. Loading slice 1 of 2 grows the live heap by 3.52 MB; it
// grew it by 4.35 MB when each section was a map holding every vector
// in arrays of its own. The count includes the slice's hub bits (1,504
// bytes); the ceilings were 6,091,000 and 3,475,000 bytes before a slice
// held them.
var residentCeilings = map[int]int64{1: 6_093_000, 2: 3_476_000}

// TestResidentBytesPerWorker holds the heap each web×1 worker slice
// keeps under its committed ceiling, at -of 1 and 2: a change may
// lower a ceiling, not raise a count past it unnoticed.
func TestResidentBytesPerWorker(t *testing.T) {
	path := webStoreFile(t)
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

// diskResidentCeiling bounds DiskStore.ResidentBytes of the serving
// fixture's open store and of each of its SplitDisk views: a hub bit
// per id, a deal rank per hub and 32-bit record offsets, 9.5 bytes for
// each of web×1's 12,000 nodes. It was 240,000 bytes when the open
// store kept a deal rank per id and two 64-bit record offsets per id,
// and 872,644 bytes when it kept a record offset per section, the tree
// and the graph.
const diskResidentCeiling = 114_000

// TestDiskResidentBytes holds the heap an open web×1 DiskStore keeps —
// mapped or read into memory — under its ceiling, and so every SplitDisk
// view at 2 and 4: a view shares the open file's index and adds only
// its own hub bits. Each store and view's DiskStats report its count.
func TestDiskResidentBytes(t *testing.T) {
	path := webStoreFile(t)
	for _, mapped := range []bool{true, false} {
		ds, err := openDiskStore(path, mapped)
		if err != nil {
			t.Fatal(err)
		}
		defer ds.Close()
		b := ds.ResidentBytes()
		t.Logf("mapped=%v: %d resident bytes, %.1f per node", mapped, b, float64(b)/float64(ds.numNodes()))
		if b > diskResidentCeiling {
			t.Errorf("mapped=%v: the open store keeps %d resident bytes, ceiling %d", mapped, b, diskResidentCeiling)
		}
		if st := ds.Stats().ResidentBytes; st != b {
			t.Errorf("mapped=%v: DiskStats reports %d resident bytes, ResidentBytes %d", mapped, st, b)
		}
		for _, of := range []int{2, 4} {
			views, err := SplitDisk(ds, of)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range views {
				got := v.ResidentBytes()
				if got < b || got > diskResidentCeiling {
					t.Errorf("mapped=%v: view %d of %d reports %d resident bytes, outside [%d (the store), %d]", mapped, i, of, got, b, diskResidentCeiling)
				}
				if st := v.Stats().ResidentBytes; st != got {
					t.Errorf("mapped=%v: view %d of %d DiskStats reports %d resident bytes, ResidentBytes %d", mapped, i, of, st, got)
				}
			}
		}
	}
}

package core

import (
	"encoding/binary"
	"errors"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"exactppr/internal/hierarchy"
	"exactppr/internal/sparse"
)

// The cross-path equivalence suite: every way of serving a saved store —
// in-memory (Load), disk-resident over a memory map, and disk-resident
// over a copy of the file read into memory — must return BIT-IDENTICAL
// vectors. The
// transposed hub-plan index preserves the exact floating-point fold
// order of the in-memory query, so equality here is ==, not a tolerance.

type diskVariant struct {
	name string
	ds   *DiskStore
}

func equivFixture(t *testing.T) (*Store, []diskVariant, []*Store) {
	t.Helper()
	g := testGraph(t, 77)
	s, err := BuildHGPA(g, hierarchy.Options{Seed: 78}, tightParams(), 2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	v2 := filepath.Join(dir, "v2.store")
	if err := SaveFile(v2, s); err != nil {
		t.Fatal(err)
	}

	var variants []diskVariant
	for _, mapped := range []bool{true, false} {
		name := "in-memory"
		if mapped {
			name = "mmap"
		}
		ds, err := openDiskStore(v2, mapped)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t.Cleanup(func() { ds.Close() })
		variants = append(variants, diskVariant{name, ds})
	}

	var loaded []*Store
	for _, path := range []string{v2} {
		ls, err := LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		loaded = append(loaded, ls)
	}
	return s, variants, loaded
}

func TestCrossPathEquivalence(t *testing.T) {
	s, variants, loaded := equivFixture(t)
	queries := sampleQueries(s)

	for _, u := range queries {
		want, err := s.Query(u)
		if err != nil {
			t.Fatal(err)
		}
		wantTop, err := s.QueryTopK(u, 5)
		if err != nil {
			t.Fatal(err)
		}
		for i, ls := range loaded {
			got, err := ls.Query(u)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("loaded[%d] u=%d: in-memory reload differs", i, u)
			}
		}
		for _, v := range variants {
			got, err := v.ds.Query(u)
			if err != nil {
				t.Fatalf("%s u=%d: %v", v.name, u, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s u=%d: disk query not bit-identical to memory", v.name, u)
			}
			gotP, err := v.ds.QueryPacked(u)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotP.Unpack(), want) {
				t.Fatalf("%s u=%d: packed disk query differs", v.name, u)
			}
			gotTop, err := v.ds.QueryTopK(u, 5)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotTop, wantTop) {
				t.Fatalf("%s u=%d: top-k differs: %v vs %v", v.name, u, gotTop, wantTop)
			}
		}
	}
}

func TestCrossPathEquivalenceQuerySet(t *testing.T) {
	s, variants, _ := equivFixture(t)
	var nodes []int32
	seen := map[int32]bool{}
	for _, u := range sampleQueries(s) {
		if !seen[u] {
			seen[u] = true
			nodes = append(nodes, u)
		}
	}
	pref := Preference{Nodes: nodes, Weights: nil}
	want, err := s.QuerySet(pref)
	if err != nil {
		t.Fatal(err)
	}
	weighted := Preference{Nodes: pref.Nodes, Weights: make([]float64, len(pref.Nodes))}
	for i := range weighted.Weights {
		weighted.Weights[i] = float64(i + 1)
	}
	wantW, err := s.QuerySet(weighted)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range variants {
		got, err := v.ds.QuerySet(pref)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: preference-set query differs", v.name)
		}
		gotW, err := v.ds.QuerySetPacked(weighted)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotW.Unpack(), wantW) {
			t.Fatalf("%s: weighted preference-set query differs", v.name)
		}
	}
}

// TestDiskShardsMatchMemoryShards: each disk shard's share is
// bit-identical to the corresponding in-memory shard's share (Split and
// SplitDisk deal hubs and leaves by one rule), and the
// shares still sum to the exact PPV.
func TestDiskShardsMatchMemoryShards(t *testing.T) {
	s, variants, _ := equivFixture(t)
	const n = 3
	memShards, err := Split(s, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range variants {
		diskShards, err := SplitDisk(v.ds, n)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range sampleQueries(s) {
			var diskParts, memParts []sparse.Packed
			for i := range diskShards {
				memShare, err := memShards[i].QueryPacked(u)
				if err != nil {
					t.Fatal(err)
				}
				diskShare, err := diskShards[i].QueryPacked(u)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(diskShare.Entries(), memShare.Entries()) {
					t.Fatalf("%s shard %d u=%d: disk share differs from memory share", v.name, i, u)
				}
				diskParts = append(diskParts, diskShare)
				memParts = append(memParts, memShare)
			}
			// The merged sums are bit-identical across backends (the
			// central query is only FP-close: different fold order).
			diskSum := sparse.MergePacked(diskParts)
			memSum := sparse.MergePacked(memParts)
			if !reflect.DeepEqual(diskSum.Unpack(), memSum.Unpack()) {
				t.Fatalf("%s u=%d: merged disk shares differ from merged memory shares", v.name, u)
			}
			want, err := s.Query(u)
			if err != nil {
				t.Fatal(err)
			}
			if d := sparse.L1Distance(diskSum.Unpack(), want); d > 1e-12 {
				t.Fatalf("%s u=%d: shard shares do not sum to the PPV (L1 %v)", v.name, u, d)
			}
		}
	}
}

// TestDiskStoreConcurrentEquivalence: both byte sources stay
// bit-identical under concurrent mixed traffic (run with -race in CI).
func TestDiskStoreConcurrentEquivalence(t *testing.T) {
	s, variants, _ := equivFixture(t)
	queries := sampleQueries(s)
	want := make([]sparse.Vector, len(queries))
	for i, u := range queries {
		w, err := s.Query(u)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = w
	}
	for _, v := range variants {
		ds := v.ds
		var wg sync.WaitGroup
		errCh := make(chan error, 32)
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(seed int) {
				defer wg.Done()
				for i := 0; i < 30; i++ {
					k := (seed + i) % len(queries)
					got, err := ds.Query(queries[k])
					if err != nil {
						errCh <- err
						return
					}
					if !reflect.DeepEqual(got, want[k]) {
						errCh <- &mismatchError{queries[k]}
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			t.Fatalf("%s: %v", v.name, err)
		}
	}
}

// TestSliceAccountingAgreesAcrossBackends: a memory slice and the disk
// slice of the same store and machine report the same hub count, leaf
// count and space — the per-machine space of §6.2.3 is one measure,
// whichever backend holds the vectors.
func TestSliceAccountingAgreesAcrossBackends(t *testing.T) {
	s, ds := diskStoreFixture(t)
	if s.SpaceBytes() != ds.SpaceBytes() {
		t.Fatalf("whole store: memory %d bytes, disk %d", s.SpaceBytes(), ds.SpaceBytes())
	}
	for n := 1; n <= 3; n++ {
		mem, err := Split(s, n)
		if err != nil {
			t.Fatal(err)
		}
		disk, err := SplitDisk(ds, n)
		if err != nil {
			t.Fatal(err)
		}
		for i := range mem {
			m, d := mem[i], disk[i]
			if m.HubCount() != d.HubCount() || m.LeafCount() != d.LeafCount() || m.SpaceBytes() != d.SpaceBytes() {
				t.Fatalf("shard %d of %d: memory %d hubs, %d leaves, %d bytes; disk %d hubs, %d leaves, %d bytes",
					i, n, m.HubCount(), m.LeafCount(), m.SpaceBytes(), d.HubCount(), d.LeafCount(), d.SpaceBytes())
			}
		}
	}
}

// TestRecordIndexMatchesFileScan: for every section and key, the dense
// record index finds what a linear walk of the record framing finds —
// the same payload offset and length, or no record — on the whole store
// and on each SplitDisk view, from the mapped and the in-memory source,
// and each of them counts the records its slice admits.
func TestRecordIndexMatchesFileScan(t *testing.T) {
	s, variants, _ := equivFixture(t)
	data := savedBytes(t, s)
	n := s.H.G.NumNodes()
	// Each section is a count and then, per record, its key and payload
	// length, zero padding to the next 8-byte offset, and the payload.
	var want [numSections]map[int32]span
	off := sectionsOff(data, s.H.G.NumEdges())
	i32 := func() int32 {
		x := int32(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		return x
	}
	for sec := range want {
		want[sec] = map[int32]span{}
		for range i32() {
			key, size := i32(), i32()
			for off%8 != 0 {
				off++
			}
			want[sec][key] = span{off: int64(off), len: size}
			off += int(size)
		}
	}
	if off != len(data) {
		t.Fatalf("the walk ended at byte %d of %d", off, len(data))
	}
	for _, v := range variants {
		views, err := SplitDisk(v.ds, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range append([]*DiskStore{v.ds}, views...) {
			var hubs, leaves int
			for sec := range int8(numSections) {
				for key := range int32(n) {
					got, ok := d.span(sec, key)
					w, has := want[sec][key]
					if ok != has || got != w {
						t.Fatalf("%s store %d: section %d key %d: index %+v (%v), walk %+v (%v)", v.name, i, sec, key, got, ok, w, has)
					}
					if has && d.own.admits(sec, key) {
						switch sec {
						case secHubPartial:
							hubs++
						case secLeafPPV:
							leaves++
						}
					}
				}
			}
			if d.HubCount() != hubs || d.LeafCount() != leaves {
				t.Fatalf("%s store %d: counts %d hubs, %d leaves; the walk admits %d, %d", v.name, i, d.HubCount(), d.LeafCount(), hubs, leaves)
			}
		}
	}
}

// TestDiskCountsAfterClose: a closed disk store and its SplitDisk views
// report the hub count, leaf count and space they reported while open,
// from the mapped and the in-memory source; splitting it fails typed.
func TestDiskCountsAfterClose(t *testing.T) {
	_, variants, _ := equivFixture(t)
	type counts struct {
		hubs, leaves int
		space        int64
	}
	of := func(d *DiskStore) counts { return counts{d.HubCount(), d.LeafCount(), d.SpaceBytes()} }
	for _, v := range variants {
		views, err := SplitDisk(v.ds, 2)
		if err != nil {
			t.Fatal(err)
		}
		stores := append([]*DiskStore{v.ds}, views...)
		var open []counts
		for _, d := range stores {
			if c := of(d); c.hubs == 0 || c.leaves == 0 || c.space == 0 {
				t.Fatalf("%s: an open store counts %+v", v.name, c)
			}
			open = append(open, of(d))
		}
		if err := v.ds.Close(); err != nil {
			t.Fatal(err)
		}
		for i, d := range stores {
			if got := of(d); got != open[i] {
				t.Fatalf("%s store %d: closed %+v, open %+v", v.name, i, got, open[i])
			}
		}
		if _, err := SplitDisk(v.ds, 2); !errors.Is(err, ErrStoreClosed) {
			t.Fatalf("%s: splitting a closed store: %v, want ErrStoreClosed", v.name, err)
		}
	}
}

package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"exactppr/internal/gen"
	"exactppr/internal/hierarchy"
	"exactppr/internal/ppr"
	"exactppr/internal/sparse"
)

// Store files are untrusted bytes: every malformed input must end in an
// error from Load or OpenDiskStore (or, when the framing is sound,
// in answers), never in a panic or an allocation sized by the file.

// storeHeaderLen is the byte length of a store file's header: magic,
// params (24), hierarchy options (28), graph counts (8), and m edges.
func storeHeaderLen(edges int) int { return 8 + 24 + 28 + 8 + 8*edges }

func savedBytes(t testing.TB, s *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// openBoth runs the in-memory loader and both disk openers over data and
// returns their errors.
func openBoth(t *testing.T, data []byte) []error {
	t.Helper()
	_, err := Load(bytes.NewReader(data))
	errs := []error{err}
	path := filepath.Join(t.TempDir(), "s.store")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mapped := range []bool{true, false} {
		ds, err := openDiskStore(path, mapped)
		if err == nil {
			ds.Close()
		}
		errs = append(errs, err)
	}
	return errs
}

// TestLoadRejectsHugeSectionCount: a section count taken from the file
// used to size a map before a single record was read, so a patched count
// of 0x7fffffff died with "fatal error: out of memory". A count above
// the node count is now a plain error.
func TestLoadRejectsHugeSectionCount(t *testing.T) {
	s, _ := diskStoreFixture(t)
	data := savedBytes(t, s)
	binary.LittleEndian.PutUint32(data[storeHeaderLen(s.H.G.NumEdges()):], 0x7fffffff)
	for i, err := range openBoth(t, data) {
		if err == nil {
			t.Fatalf("opener %d accepted a section count of 0x7fffffff", i)
		}
	}
}

// TestLoadRejectsNegativeKey: a leaf-section key of −5 used to open
// fine, after which Split and SplitDisk panicked with an index out of
// range dealing the leaf to machine u mod n.
func TestLoadRejectsNegativeKey(t *testing.T) {
	s, _ := diskStoreFixture(t)
	bad := s.Clone()
	for _, vec := range s.LeafPPV {
		bad.LeafPPV[-5] = vec
		break
	}
	for i, err := range openBoth(t, savedBytes(t, bad)) {
		if err == nil {
			t.Fatalf("opener %d accepted leaf key -5", i)
		}
	}
}

// TestLoadRejectsUnsortedKeys: Save writes every section's keys strictly
// increasing, so a repeated key is corruption, not a second vector.
func TestLoadRejectsUnsortedKeys(t *testing.T) {
	s, _ := diskStoreFixture(t)
	data := savedBytes(t, s)
	// Point the first section's second record at the first one's key.
	off := storeHeaderLen(s.H.G.NumEdges()) + 4
	first := binary.LittleEndian.Uint32(data[off:])
	vlen := int(binary.LittleEndian.Uint32(data[off+4:]))
	next := off + 8
	next += (8 - next%8) % 8
	next += vlen
	binary.LittleEndian.PutUint32(data[next:], first)
	for i, err := range openBoth(t, data) {
		if err == nil {
			t.Fatalf("opener %d accepted a repeated key %d", i, first)
		}
	}
}

// TestUnsupportedStoreVersion: a version-1 file gets the typed error
// from both openers, so callers can tell "rebuild the store" apart from
// corruption.
func TestUnsupportedStoreVersion(t *testing.T) {
	s, _ := diskStoreFixture(t)
	data := savedBytes(t, s)
	copy(data, storeMagicV1[:])
	for i, err := range openBoth(t, data) {
		if !errors.Is(err, ErrUnsupportedStoreVersion) {
			t.Fatalf("opener %d: got %v, want ErrUnsupportedStoreVersion", i, err)
		}
	}
}

// storeParamsOff is the file offset of the 24-byte params block:
// alpha, eps float64; maxIter, dangling int32.
const storeParamsOff = 8

// putStoreParams overwrites the params block of a saved store.
func putStoreParams(data []byte, alphaBits, epsBits uint64, maxIter, dangling int32) {
	b := data[storeParamsOff:]
	binary.LittleEndian.PutUint64(b[0:], alphaBits)
	binary.LittleEndian.PutUint64(b[8:], epsBits)
	binary.LittleEndian.PutUint32(b[16:], uint32(maxIter))
	binary.LittleEndian.PutUint32(b[20:], uint32(dangling))
}

// TestLoadRejectsInvalidParams: the header's PPR parameters used to be
// taken on trust. With a NaN alpha this fixture loaded and Query(3)
// returned 30 NaN entries of 46; a subnormal alpha gave 29 non-finite
// ones. Alpha 2, eps −1, maxIter −5 and dangling 7 loaded and served
// too, as did a DanglingRestart header the kernels never implemented.
// Every opener now fails with ErrInvalidStoreParams.
func TestLoadRejectsInvalidParams(t *testing.T) {
	s, _ := diskStoreFixture(t)
	p := s.Params
	alpha, eps := math.Float64bits(p.Alpha), math.Float64bits(p.Eps)
	for _, tc := range []struct {
		name              string
		alpha, eps        uint64
		maxIter, dangling int32
	}{
		{"alpha NaN", math.Float64bits(math.NaN()), eps, 0, 0},
		{"alpha 2", math.Float64bits(2), eps, 0, 0},
		{"alpha 0", 0, eps, 0, 0},
		{"alpha subnormal", 1, eps, 0, 0},
		{"eps -1", alpha, math.Float64bits(-1), 0, 0},
		{"eps NaN", alpha, math.Float64bits(math.NaN()), 0, 0},
		{"maxIter -5", alpha, eps, -5, 0},
		{"dangling 7", alpha, eps, 0, 7},
		{"dangling restart", alpha, eps, 0, int32(ppr.DanglingRestart)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := savedBytes(t, s)
			putStoreParams(data, tc.alpha, tc.eps, tc.maxIter, tc.dangling)
			errs := openBoth(t, data)
			for i := range 2 {
				_, err := load(bytes.NewReader(data), i, 2)
				errs = append(errs, err)
			}
			for i, err := range errs {
				if !errors.Is(err, ErrInvalidStoreParams) {
					t.Fatalf("opener %d: got %v, want ErrInvalidStoreParams", i, err)
				}
			}
		})
	}
}

// FuzzStoreParams mutates the 24-byte params block of a tiny store —
// and nothing else: the node and edge counts that follow wait on a
// length bound — and serves whatever opens: Load, each shard's load,
// and both disk openers. A store that opens must hold params that pass
// ValidatePrecompute and must answer every node with finite entries.
func FuzzStoreParams(f *testing.F) {
	g, err := gen.Community(gen.Config{
		Nodes: 24, AvgOutDegree: 3, Communities: 3,
		InterFrac: 0.1, MinOutDegree: 1, Seed: 5,
	})
	if err != nil {
		f.Fatal(err)
	}
	s, err := BuildHGPA(g, hierarchy.Options{Seed: 5, MinSize: 6}, ppr.Params{Alpha: 0.15, Eps: 1e-3}, 1)
	if err != nil {
		f.Fatal(err)
	}
	data := savedBytes(f, s)
	alpha, eps := math.Float64bits(0.15), math.Float64bits(1e-3)
	f.Add(alpha, eps, int32(0), int32(0))
	f.Add(math.Float64bits(math.NaN()), eps, int32(0), int32(0))
	f.Add(uint64(1), eps, int32(0), int32(0))
	f.Add(math.Float64bits(1e-6), eps, int32(0), int32(0))
	f.Add(math.Float64bits(0.999), math.Float64bits(math.Inf(1)), int32(1), int32(0))
	f.Add(alpha, eps, int32(-5), int32(7))
	f.Fuzz(func(t *testing.T, alphaBits, epsBits uint64, maxIter, dangling int32) {
		file := bytes.Clone(data)
		putStoreParams(file, alphaBits, epsBits, maxIter, dangling)
		n := int32(g.NumNodes())
		check := func(opener string, p ppr.Params, queries ...func(int32) (sparse.Packed, error)) {
			if err := p.ValidatePrecompute(); err != nil {
				t.Fatalf("%s opened a store with invalid params: %v", opener, err)
			}
			for _, q := range queries {
				for u := int32(0); u < n; u++ {
					v, err := q(u)
					if err != nil {
						continue
					}
					v.ForEach(func(id int32, x float64) {
						if math.IsNaN(x) || math.IsInf(x, 0) {
							t.Fatalf("%s: u=%d entry %d = %v under params %+v", opener, u, id, x, p)
						}
					})
				}
			}
		}
		if ls, err := Load(bytes.NewReader(file)); err == nil {
			check("Load", ls.Params, ls.QueryPacked)
		}
		for i := range 2 {
			if local, err := load(bytes.NewReader(file), i, 2); err == nil {
				check("LoadShard", local.Params, local.QueryPacked)
			}
		}
		path := filepath.Join(t.TempDir(), "f.store")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, mapped := range []bool{true, false} {
			if ds, err := openDiskStore(path, mapped); err == nil {
				check("OpenDiskStore", ds.Params, ds.QueryPacked)
				ds.Close()
			}
		}
	})
}

// FuzzStoreSections mutates the record sections of a tiny store — never
// its header, whose node count sizes the graph's arrays — and serves
// whatever opens: Load and both disk openers, each split two ways and
// queried for every node, whole and per shard. Each shard is also
// loaded on its own, as LoadShard does; when Load succeeds so must it,
// with every share equal to the split's.
func FuzzStoreSections(f *testing.F) {
	g, err := gen.Community(gen.Config{
		Nodes: 24, AvgOutDegree: 3, Communities: 3,
		InterFrac: 0.1, MinOutDegree: 1, Seed: 5,
	})
	if err != nil {
		f.Fatal(err)
	}
	s, err := BuildHGPA(g, hierarchy.Options{Seed: 5, MinSize: 6}, ppr.Params{Alpha: 0.15, Eps: 1e-3}, 1)
	if err != nil {
		f.Fatal(err)
	}
	data := savedBytes(f, s)
	hdr := storeHeaderLen(g.NumEdges())
	header := data[:hdr:hdr]
	sections := data[hdr:]
	f.Add(sections)
	f.Add(sections[:len(sections)/2])
	f.Add([]byte{})
	for _, patch := range []struct {
		off int
		val uint32
	}{{0, 0x7fffffff}, {4, 0xfffffffb}, {8, 0x7fffffff}} {
		mut := bytes.Clone(sections)
		binary.LittleEndian.PutUint32(mut[patch.off:], patch.val)
		f.Add(mut)
	}
	f.Fuzz(func(t *testing.T, sections []byte) {
		file := append(header, sections...)
		n := g.NumNodes()
		var split []*Store
		if ls, err := Load(bytes.NewReader(file)); err == nil {
			if split, err = Split(ls, 2); err != nil {
				t.Fatal(err)
			}
			queryAll(n, ls.QueryPacked, split[0].QueryPacked, split[1].QueryPacked)
		}
		for i := range 2 {
			local, err := load(bytes.NewReader(file), i, 2)
			if err != nil {
				if split != nil {
					t.Fatalf("Load succeeded but the load of shard %d/2 failed: %v", i, err)
				}
				continue
			}
			if split == nil {
				queryAll(n, local.QueryPacked)
				continue
			}
			for u := int32(0); u < int32(n); u++ {
				a, errA := local.QueryPacked(u)
				b, errB := split[i].QueryPacked(u)
				if (errA == nil) != (errB == nil) || errA == nil && !bytes.Equal(sparse.EncodePacked(a), sparse.EncodePacked(b)) {
					t.Fatalf("shard %d/2 u=%d: loaded share (%v) differs from Split(Load)'s (%v)", i, u, errA, errB)
				}
			}
		}
		path := filepath.Join(t.TempDir(), "f.store")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, mapped := range []bool{true, false} {
			ds, err := openDiskStore(path, mapped)
			if err != nil {
				continue
			}
			shards, err := SplitDisk(ds, 2)
			if err != nil {
				t.Fatal(err)
			}
			queryAll(ds.H.G.NumNodes(), ds.QueryPacked, shards[0].QueryPacked, shards[1].QueryPacked)
			ds.Close()
		}
	})
}

// queryAll asks every query function for every node; errors are fine,
// panics are not.
func queryAll(n int, queries ...func(int32) (sparse.Packed, error)) {
	for _, q := range queries {
		for u := int32(0); u < int32(n); u++ {
			q(u)
		}
	}
}

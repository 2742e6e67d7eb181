package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"exactppr/internal/gen"
	"exactppr/internal/hierarchy"
	"exactppr/internal/ppr"
	"exactppr/internal/sparse"
)

// Store files are untrusted bytes: every malformed input must end in an
// error from Load or OpenDiskStore (or, when the framing is sound,
// in answers), never in a panic or an allocation sized by the file.

// storeHeaderLen is the byte length of a store file's header: magic,
// params (24), hierarchy options (28), graph counts (8), graph epoch
// (8), and m edges. The tree section follows it.
func storeHeaderLen(edges int) int { return 8 + 24 + 28 + 8 + 8 + 8*edges }

// treeRecord is one node record of a store file's tree section (see
// hierarchy.AppendTree).
type treeRecord struct {
	parent            int32
	hubs, ranks, leaf []int32
}

// storeTree splits a saved store into the bytes before its tree
// section, the tree's nextRank and node records, and the bytes after it.
func storeTree(data []byte, edges int) (head []byte, nextRank int32, nodes []treeRecord, tail []byte) {
	off := storeHeaderLen(edges)
	head = data[:off:off]
	next := func() int32 {
		x := int32(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		return x
	}
	count := next()
	nextRank = next()
	for range count {
		r := treeRecord{parent: next()}
		hubs, leaf := next(), next()
		for range hubs {
			r.hubs = append(r.hubs, next())
			r.ranks = append(r.ranks, next())
		}
		for range leaf {
			r.leaf = append(r.leaf, next())
		}
		nodes = append(nodes, r)
	}
	return head, nextRank, nodes, data[off:]
}

// withTree joins head, a tree section encoding nextRank and nodes, and
// tail into a fresh store file.
func withTree(head []byte, nextRank int32, nodes []treeRecord, tail []byte) []byte {
	out := bytes.Clone(head)
	put := func(x int32) { out = binary.LittleEndian.AppendUint32(out, uint32(x)) }
	put(int32(len(nodes)))
	put(nextRank)
	for _, r := range nodes {
		put(r.parent)
		put(int32(len(r.hubs)))
		put(int32(len(r.leaf)))
		for k := range r.hubs {
			put(r.hubs[k])
			put(r.ranks[k])
		}
		for _, x := range r.leaf {
			put(x)
		}
	}
	return append(out, tail...)
}

// sectionsOff is the file offset of a saved store's first record
// section: the end of its tree section.
func sectionsOff(data []byte, edges int) int {
	_, _, _, tail := storeTree(data, edges)
	return len(data) - len(tail)
}

func savedBytes(t testing.TB, s *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// opener opens a store file's bytes one way and closes what it opened.
type opener struct {
	name string
	open func() error
}

// storeOpeners lists every way to open data: Load, LoadShard for each
// machine of a 2-way split, and both disk openers.
func storeOpeners(t *testing.T, data []byte) []opener {
	t.Helper()
	path := filepath.Join(t.TempDir(), "s.store")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	openers := []opener{{"Load", func() error {
		_, err := Load(bytes.NewReader(data))
		return err
	}}}
	for i := range 2 {
		openers = append(openers, opener{fmt.Sprintf("LoadShard %d/2", i), func() error {
			_, err := LoadShard(path, i, 2)
			return err
		}})
	}
	for _, mapped := range []bool{true, false} {
		openers = append(openers, opener{fmt.Sprintf("OpenDiskStore mapped=%v", mapped), func() error {
			ds, err := openDiskStore(path, mapped)
			if err == nil {
				ds.Close()
			}
			return err
		}})
	}
	return openers
}

// openBoth runs every opener over data and returns their errors.
func openBoth(t *testing.T, data []byte) []error {
	t.Helper()
	var errs []error
	for _, o := range storeOpeners(t, data) {
		errs = append(errs, o.open())
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
	binary.LittleEndian.PutUint32(data[sectionsOff(data, s.H.G.NumEdges()):], 0x7fffffff)
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
	// A table holds no negative key, so the file is patched instead:
	// the leaf section's first key becomes −5.
	bad := savedBytes(t, s)
	off := sectionsOff(bad, s.H.G.NumEdges()) + 4 // the first hub-partial record
	for range s.HubPartial.Len() {
		off = int(payloadOffset(int64(off))) + int(binary.LittleEndian.Uint32(bad[off+4:]))
	}
	neg := int32(-5)
	binary.LittleEndian.PutUint32(bad[off+4:], uint32(neg)) // past the leaf section's count
	for i, err := range openBoth(t, bad) {
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
	off := sectionsOff(data, s.H.G.NumEdges()) + 4
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

// TestUnsupportedStoreVersion: a version-1 or version-2 file gets the
// typed error from every opener, so callers can tell "rebuild the
// store" apart from corruption.
func TestUnsupportedStoreVersion(t *testing.T) {
	s, _ := diskStoreFixture(t)
	for _, magic := range [][8]byte{storeMagicV1, storeMagicV2} {
		data := savedBytes(t, s)
		copy(data, magic[:])
		for i, err := range openBoth(t, data) {
			if !errors.Is(err, ErrUnsupportedStoreVersion) {
				t.Fatalf("%s opener %d: got %v, want ErrUnsupportedStoreVersion", magic, i, err)
			}
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
				_, err := loadBytes(data, i, 2)
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

// storeOptionsOff is the file offset of the 28-byte hierarchy-options
// block: fanout, maxLevels, minSize int32; imbalance float64; seed
// int64. The node and edge counts n, m int32 follow it.
const storeOptionsOff = storeParamsOff + 24

// storeEpochOff is the file offset of the graph epoch, which follows
// the graph counts.
const storeEpochOff = storeOptionsOff + 28 + 8

// putStoreOptions overwrites the hierarchy options and the graph counts
// of a saved store.
func putStoreOptions(data []byte, fanout, maxLevels, minSize int32, imbalanceBits uint64, seed int64, n, m int32) {
	b := data[storeOptionsOff:]
	binary.LittleEndian.PutUint32(b[0:], uint32(fanout))
	binary.LittleEndian.PutUint32(b[4:], uint32(maxLevels))
	binary.LittleEndian.PutUint32(b[8:], uint32(minSize))
	binary.LittleEndian.PutUint64(b[12:], imbalanceBits)
	binary.LittleEndian.PutUint64(b[20:], uint64(seed))
	binary.LittleEndian.PutUint32(b[28:], uint32(n))
	binary.LittleEndian.PutUint32(b[32:], uint32(m))
}

// TestLoadRejectsHostileImbalance: the header's imbalance reached the
// partitioner unchecked, whose part-weight bounds overflow for it; the
// bisection then kept a subgraph whole and hierarchy.Build split the
// same member set forever: with a NaN imbalance this fixture's Load
// never returned. Every opener now fails with ErrInvalidStoreParams,
// each under a 1 s deadline.
func TestLoadRejectsHostileImbalance(t *testing.T) {
	s, _ := diskStoreFixture(t)
	o := s.H.Opts
	for _, imb := range []float64{math.NaN(), math.Inf(1), 1e300} {
		data := savedBytes(t, s)
		putStoreOptions(data, int32(o.Fanout), int32(o.MaxLevels), int32(o.MinSize), math.Float64bits(imb), o.Seed,
			int32(s.H.G.NumNodes()), int32(s.H.G.NumEdges()))
		for _, op := range storeOpeners(t, data) {
			done := make(chan error, 1)
			go func() { done <- op.open() }()
			select {
			case err := <-done:
				if !errors.Is(err, ErrInvalidStoreParams) {
					t.Errorf("imbalance %v: %s: got %v, want ErrInvalidStoreParams", imb, op.name, err)
				}
			case <-time.After(time.Second):
				t.Fatalf("imbalance %v: %s still running after 1 s", imb, op.name)
			}
		}
	}
}

// TestLoadBoundsCountsByFileLength: the header's node count sized the
// graph's and the tree's arrays before a record was read, so n =
// 0x7fffffff asked for more than 50 GiB. A store holds a record of at
// least 16 bytes for every node and 8 bytes for every edge; a count the
// file is too short to hold now fails every opener, which allocates
// under 1 MiB doing so.
func TestLoadBoundsCountsByFileLength(t *testing.T) {
	s, _ := diskStoreFixture(t)
	// The bound's premise, on this fixture and equivFixture's: every
	// node has a hub-partial or a leaf record.
	eq, _, _ := equivFixture(t)
	for _, st := range []*Store{s, eq} {
		for u := range int32(st.H.G.NumNodes()) {
			if _, ok := st.HubPartial.Get(u); !ok && st.H.IsHub(u) {
				t.Fatalf("hub %d has no partial", u)
			}
			if _, ok := st.LeafPPV.Get(u); !ok && !st.H.IsHub(u) {
				t.Fatalf("node %d has no leaf PPV", u)
			}
		}
	}
	o := s.H.Opts
	n, m := int32(s.H.G.NumNodes()), int32(s.H.G.NumEdges())
	for _, tc := range []struct {
		name string
		n, m int32
	}{{"n", 0x7fffffff, m}, {"m", n, 0x7fffffff}} {
		data := savedBytes(t, s)
		putStoreOptions(data, int32(o.Fanout), int32(o.MaxLevels), int32(o.MinSize), math.Float64bits(o.Imbalance), o.Seed, tc.n, tc.m)
		for _, op := range storeOpeners(t, data) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := op.open()
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("%s = 0x7fffffff: %s opened", tc.name, op.name)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
				t.Errorf("%s = 0x7fffffff: %s allocated %d bytes before failing (%v)", tc.name, op.name, alloc, err)
			}
		}
	}
}

// FuzzStoreParams mutates the header of a tiny store — the params, the
// hierarchy options, the node and edge counts and the graph epoch — and
// the tree section's nextRank, and serves whatever opens: Load, each
// shard's load, and both disk openers. A store that opens must hold
// params that pass ValidatePrecompute, options and a tree that pass
// Validate, and the file's epoch, and must answer every node with
// finite entries.
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
	o := s.H.Opts
	fanout, maxLevels, minSize := int32(o.Fanout), int32(o.MaxLevels), int32(o.MinSize)
	imb := math.Float64bits(o.Imbalance)
	n, m := int32(g.NumNodes()), int32(g.NumEdges())
	_, nextRank, _, _ := storeTree(data, g.NumEdges())
	for _, p := range []struct {
		alpha, eps        uint64
		maxIter, dangling int32
	}{
		{alpha, eps, 0, 0},
		{math.Float64bits(math.NaN()), eps, 0, 0},
		{1, eps, 0, 0},
		{math.Float64bits(1e-6), eps, 0, 0},
		{math.Float64bits(0.999), math.Float64bits(math.Inf(1)), 1, 0},
		{alpha, eps, -5, 7},
	} {
		f.Add(p.alpha, p.eps, p.maxIter, p.dangling, fanout, maxLevels, minSize, imb, o.Seed, n, m, nextRank, uint64(0))
	}
	f.Add(alpha, eps, int32(0), int32(0), fanout, maxLevels, minSize, math.Float64bits(math.NaN()), o.Seed, n, m, nextRank, uint64(0))
	f.Add(alpha, eps, int32(0), int32(0), fanout, maxLevels, minSize, imb, o.Seed, int32(0x7fffffff), m, nextRank, uint64(0))
	f.Add(alpha, eps, int32(0), int32(0), fanout, maxLevels, minSize, imb, o.Seed, n, int32(0x7fffffff), nextRank, uint64(0))
	f.Add(alpha, eps, int32(0), int32(0), int32(1), int32(0), int32(1), imb, o.Seed, n, m, nextRank, uint64(0))
	for _, r := range []int32{0, nextRank - 1, nextRank + 1, n + 1, -1, 0x7fffffff} {
		f.Add(alpha, eps, int32(0), int32(0), fanout, maxLevels, minSize, imb, o.Seed, n, m, r, uint64(0))
	}
	f.Add(alpha, eps, int32(0), int32(0), fanout, maxLevels, minSize, imb, o.Seed, n, m, nextRank, uint64(math.MaxUint64))
	treeOff := storeHeaderLen(g.NumEdges())
	f.Fuzz(func(t *testing.T, alphaBits, epsBits uint64, maxIter, dangling, fanout, maxLevels, minSize int32, imbalanceBits uint64, seed int64, nodes, edges, nextRank int32, epoch uint64) {
		file := bytes.Clone(data)
		putStoreParams(file, alphaBits, epsBits, maxIter, dangling)
		putStoreOptions(file, fanout, maxLevels, minSize, imbalanceBits, seed, nodes, edges)
		binary.LittleEndian.PutUint64(file[storeEpochOff:], epoch)
		binary.LittleEndian.PutUint32(file[treeOff+4:], uint32(nextRank))
		check := func(opener string, p ppr.Params, h *hierarchy.Hierarchy, queries ...func(int32) (sparse.Packed, error)) {
			if err := p.ValidatePrecompute(); err != nil {
				t.Fatalf("%s opened a store with invalid params: %v", opener, err)
			}
			if err := h.Opts.Validate(); err != nil {
				t.Fatalf("%s opened a store with invalid options: %v", opener, err)
			}
			if err := h.Validate(); err != nil {
				t.Fatalf("%s opened a store with an invalid tree: %v", opener, err)
			}
			if h.G.Epoch() != epoch {
				t.Fatalf("%s opened a store at epoch %d from a file at epoch %d", opener, h.G.Epoch(), epoch)
			}
			n := int32(h.G.NumNodes())
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
			check("Load", ls.Params, ls.H, ls.QueryPacked)
		}
		for i := range 2 {
			if local, err := loadBytes(file, i, 2); err == nil {
				check("LoadShard", local.Params, local.H, local.QueryPacked)
			}
		}
		path := filepath.Join(t.TempDir(), "f.store")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, mapped := range []bool{true, false} {
			if ds, err := openDiskStore(path, mapped); err == nil {
				check("OpenDiskStore", ds.Params, ds.H, ds.QueryPacked)
				ds.Close()
			}
		}
	})
}

// FuzzStoreSections mutates the tree and the record sections of a tiny
// store — never its header, which FuzzStoreParams covers — and serves
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
	for _, tc := range hostileTrees(f, s) {
		f.Add(tc.file[hdr:])
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
			local, err := loadBytes(file, i, 2)
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

// TestLoadChecksPlanRows: the plan rows are the only copy of the
// skeleton values. A hub missing from its own row fails every opener
// (the fold applies the −α self term through that entry), and a row out
// of fold order fails the loaders, which transpose every row; the disk
// store folds rows as they are and checks only their hub ids.
func TestLoadChecksPlanRows(t *testing.T) {
	s, ds := diskStoreFixture(t)
	hubAt := func(u int32, k int) int64 { sp, _ := ds.span(secHubPlan, u); return sp.off + 8 + 4*int64(k) }
	var hub, row int32 = -1, -1
	for u := range int32(s.H.G.NumNodes()) {
		sp, ok := ds.span(secHubPlan, u)
		if !ok {
			continue
		}
		if s.H.IsHub(u) && (hub < 0 || u < hub) {
			hub = u
		}
		if !s.H.IsHub(u) && sp.entries() >= 2 && (row < 0 || u < row) {
			row = u
		}
	}
	if hub < 0 || row < 0 {
		t.Fatal("fixture has no hub row or no non-hub row of two entries")
	}

	data := savedBytes(t, s)
	plan, err := ds.row(hub)
	if err != nil {
		t.Fatal(err)
	}
	k := slices.Index(plan.hubs, hub)
	binary.LittleEndian.PutUint32(data[hubAt(hub, k):], uint32(s.H.G.NumNodes()-1-int(hub)))
	for _, op := range storeOpeners(t, data) {
		if err := op.open(); err == nil || !strings.Contains(err.Error(), "missing from its own plan row") {
			t.Errorf("hub %d left out of its row: %s: got %v", hub, op.name, err)
		}
	}

	data = savedBytes(t, s)
	first, second := data[hubAt(row, 0):hubAt(row, 1)], data[hubAt(row, 1):hubAt(row, 2)]
	a, b := bytes.Clone(first), bytes.Clone(second)
	copy(first, b)
	copy(second, a)
	for i, err := range openBoth(t, data)[:3] {
		if err == nil || !strings.Contains(err.Error(), "out of fold order") {
			t.Errorf("row %d's first two hubs swapped: loader %d: got %v", row, i, err)
		}
	}
}

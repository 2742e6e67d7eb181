package core

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"exactppr/internal/hierarchy"
	"exactppr/internal/mmapfile"
	"exactppr/internal/ppr"
	"exactppr/internal/sparse"
)

// DiskStore answers exact PPV queries straight from a store file written
// by Save/SaveFile, reading vectors on demand instead of materializing
// them in memory. The paper points out that pre-computed vectors "could
// likely be larger than available main memory" and suggests a disk-based
// implementation (§5.2); this is that implementation, built around two
// compounding serving optimisations:
//
//   - Zero-copy mmap. The store file is memory-mapped and vector
//     payloads are served as sparse.PackedView slices aliasing the
//     mapping — no read buffer, no decode copy, no vector cache of its
//     own: the OS page cache is the vector cache. Where mapping is
//     unsupported or fails, the file is read into one heap buffer at
//     open and served through the same views.
//   - Transposed skeleton index. A query folds exactly one hub-plan row
//     (leaf + Σ (h, S_u(h))·partial) instead of fetching every path
//     hub's entire skeleton vector to read a single scalar. The store
//     file keeps skeleton values only in this transposed form.
//
// Only the graph, the hierarchy, and an offset index are always
// resident; vector payloads stay on disk (or in the page cache). Opening
// checks what Load checks before it copies a vector: the header, the
// tree, the section framing, that every hub has its partial record, and
// that every hub's own plan row lists it (parseStore). Every record's
// payload is checked each time it is viewed, so a corrupt vector fails
// the query that reads it. Queries run the same fold as the in-memory
// Store (fold.go), with the plan row as the source of each path hub's
// s_u(h), so disk and memory answers are bit-identical.
//
// A DiskStore holds the whole store, or — from SplitDisk — one
// machine's slice of it: a view over the same open file that folds only
// the vectors its owner admits, so a query on a slice answers that
// slice's additive share. Memory and disk slices of one store answer
// the same bytes.
//
// DiskStore is safe for concurrent queries and is read-only: it does not
// support ApplyUpdates — rebuild and reopen to pick up new graph state.
type DiskStore struct {
	*diskFile
	own *owner // the slice this view serves; nil for the whole store
}

// diskFile is the open store file every slice of it shares: the file's
// bytes and the offset index. It is the disk vectorSource.
type diskFile struct {
	H      *hierarchy.Hierarchy
	Params ppr.Params

	// data is the whole store file: a read-only mapping, or a heap copy
	// read at open where mapping is unsupported or fails (mapped false).
	data   []byte
	mapped bool

	idx [numSections]map[int32]span // hub partials, leaf PPVs, hub plans
	// skeletonLen[h] is the entry count of hub h's skeleton vector: the
	// non-zero values of h's column of the plan rows.
	skeletonLen []int32

	// fmu guards the mapping's lifecycle. Queries hold it shared for
	// their entire duration — not just across the read — because the
	// vectors being folded are views over data; Close takes it
	// exclusively, so it cannot unmap bytes an in-flight fold is
	// reading. Drained results never alias data (the accumulator copies
	// on drain), so nothing escapes the lock.
	fmu    sync.RWMutex
	closed bool

	reads atomic.Int64 // records viewed
}

// ErrStoreClosed reports a query against a DiskStore after Close.
var ErrStoreClosed = fmt.Errorf("core: disk store is closed")

type span struct {
	off int64
	len int32
}

// entries is the entry count of the columnar vector record sp spans,
// the inverse of sparse.EncodedSizeColumnar (8+12n bytes, plus 4 of
// padding when n is odd).
func (sp span) entries() int { return (int(sp.len) - 8) / 12 }

const (
	secHubPartial = 0
	secLeafPPV    = 1
	secHubPlan    = 2
	// secSkeleton names an in-memory store's skeleton vectors in errors;
	// the file stores skeleton values in the plan rows alone.
	secSkeleton = 3
)

// DiskOptions is empty: the disk store has no serving options.
//
// Deprecated: the perfbench module still names this; it goes with
// perfbench's next change.
type DiskOptions struct{}

// OpenDiskStoreWith is OpenDiskStore.
//
// Deprecated: the perfbench module still names this; it goes with
// perfbench's next change.
func OpenDiskStoreWith(path string, _ DiskOptions) (*DiskStore, error) { return OpenDiskStore(path) }

// DiskStats is a snapshot of the serving counters, exposed through the
// gateway's /stats so mmap regressions are observable in production,
// not just in benchmarks.
type DiskStats struct {
	// Reads counts the vector and plan records viewed.
	Reads int64
	// Mmap reports whether the store serves from a memory-mapped file
	// (false: from a copy of the file read into memory at open).
	Mmap bool

	// These always read 0.
	//
	// Deprecated: the perfbench module still names these; they go with
	// perfbench's next change.
	CacheHits, CacheMisses, CoalescedReads, Evictions int64
}

// OpenDiskStore opens a store file for on-demand querying. The file is
// mapped read-only — or, where mapping is unsupported or fails, read
// into one buffer — and parsed once: the header, graph and hierarchy
// are loaded, and vector payloads are indexed by offset and served
// zero-copy from those bytes. A file that Load rejects fails here too,
// at open, except for a corrupt payload, which fails the queries that
// view it.
func OpenDiskStore(path string) (*DiskStore, error) { return openDiskStore(path, true) }

// openDiskStore is OpenDiskStore with the mapping optional: mapped
// false reads the file into memory even where mapping would work.
func openDiskStore(path string, mapped bool) (*DiskStore, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // a mapping outlives its file descriptor
	var data []byte
	if mapped {
		// A failed map (no mmap on the platform, a filesystem that
		// refuses it) falls back to reading the file: same answers.
		data, err = mmapfile.Map(f)
		mapped = err == nil
	}
	if !mapped {
		if data, err = readFile(f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	df, err := parseStore(data)
	if err != nil {
		if mapped {
			mmapfile.Unmap(data)
		}
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	df.mapped = mapped
	return &DiskStore{diskFile: df}, nil
}

// readFile reads the whole of f into one buffer.
func readFile(f *os.File) ([]byte, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data := make([]byte, fi.Size())
	_, err = f.ReadAt(data, 0)
	return data, err
}

// Close releases the file's bytes for every slice of the store at once.
// It blocks until in-flight queries drain — their vector views alias
// the mapping, so unmapping mid-fold would be a fault, not just a race;
// queries issued afterwards fail with ErrStoreClosed. Close is
// idempotent.
func (d *DiskStore) Close() error {
	d.fmu.Lock()
	defer d.fmu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	var err error
	if d.mapped {
		err = mmapfile.Unmap(d.data)
	}
	d.data = nil
	return err
}

// Stats snapshots the serving counters, which every slice of the store
// shares. Safe concurrently with queries and Close.
func (d *DiskStore) Stats() DiskStats {
	return DiskStats{Reads: d.reads.Load(), Mmap: d.mapped}
}

// acquire takes the shared lifecycle lock for one query; the caller must
// release() when its fold (including the drain) is done.
func (d *diskFile) acquire() error {
	d.fmu.RLock()
	if d.closed {
		d.fmu.RUnlock()
		return ErrStoreClosed
	}
	return nil
}

func (d *diskFile) release() { d.fmu.RUnlock() }

// record returns the columns of the record sp spans, aliasing d.data
// (do not retain past the lifecycle lock), after checking its framing.
func (d *diskFile) record(sp span) ([]int32, []float64, error) {
	end := sp.off + int64(sp.len)
	if sp.off < 0 || end > int64(len(d.data)) {
		return nil, nil, fmt.Errorf("core: record at %d+%d outside the %d-byte file", sp.off, sp.len, len(d.data))
	}
	return sparse.ViewColumnar(d.data[sp.off:end:end])
}

// fetch returns one vector as a view over the file, checked on every
// call: ids strictly ascending and naming nodes of the graph. It counts
// one read.
func (d *diskFile) fetch(section int8, key int32) (sparse.Packed, error) {
	sp, ok := d.idx[section][key]
	if !ok {
		return sparse.Packed{}, missingVector(section, key)
	}
	d.reads.Add(1)
	ids, scores, err := d.record(sp)
	var v sparse.Packed
	if err == nil {
		v, err = sparse.PackedView(ids, scores)
	}
	if err != nil {
		return sparse.Packed{}, fmt.Errorf("core: vector for section %d key %d: %w", section, key, err)
	}
	if !v.InRange(d.numNodes()) {
		return sparse.Packed{}, fmt.Errorf("core: vector for section %d key %d has out-of-range node ids (corrupt store?)", section, key)
	}
	return v, nil
}

// plan is row for a query: it counts one read when u has a row.
func (d *diskFile) plan(u int32) (planRow, error) {
	if _, ok := d.idx[secHubPlan][u]; ok {
		d.reads.Add(1)
	}
	return d.row(u)
}

// row returns node u's hub-weight row as a view over the file, its hubs
// checked on every call (a node with no path hubs simply has no row).
func (d *diskFile) row(u int32) (planRow, error) {
	sp, ok := d.idx[secHubPlan][u]
	if !ok {
		return planRow{}, nil
	}
	hubs, s, err := d.record(sp)
	if err != nil {
		return planRow{}, fmt.Errorf("core: hub plan for %d: %w", u, err)
	}
	n := int32(d.numNodes())
	for _, h := range hubs {
		if h < 0 || h >= n {
			return planRow{}, fmt.Errorf("core: hub plan for %d references out-of-range hub %d (corrupt store?)", u, h)
		}
	}
	return planRow{hubs: hubs, s: s}, nil
}

// The disk vectorSource: the lifecycle lock pins the mapping for a
// whole query, and a path walk is one plan row — returned as is
// for the whole store, filtered into the scratch row for a slice.

func (d *diskFile) numNodes() int { return d.H.G.NumNodes() }

func (d *diskFile) alpha() float64 { return d.Params.Alpha }

func (d *diskFile) isHub(u int32) bool { return d.H.IsHub(u) }

func (d *diskFile) pathHubs(u int32, own *owner, row *planRow) (planRow, error) {
	plan, err := d.plan(u)
	if err != nil || own == nil {
		return plan, err
	}
	row.hubs, row.s = row.hubs[:0], row.s[:0]
	for i, h := range plan.hubs {
		if own.hub(h) {
			row.hubs = append(row.hubs, h)
			row.s = append(row.s, plan.s[i])
		}
	}
	return *row, nil
}

func (d *diskFile) partial(h int32) (sparse.Packed, error) { return d.fetch(secHubPartial, h) }

func (d *diskFile) leaf(u int32) (sparse.Packed, error) { return d.fetch(secLeafPPV, u) }

// Query constructs the exact PPV of u reading vectors from disk — the
// same identity as Store.Query, bit-for-bit; on a slice, that slice's
// additive share.
func (d *DiskStore) Query(u int32) (sparse.Vector, error) {
	return serve(d.diskFile, d.own, u, nil, (*sparse.Accumulator).Vector)
}

// QueryPacked is Query draining into the columnar representation the
// serving layer encodes straight onto the wire.
func (d *DiskStore) QueryPacked(u int32) (sparse.Packed, error) {
	return serve(d.diskFile, d.own, u, nil, (*sparse.Accumulator).Packed)
}

// QueryTopK returns the k highest-scoring nodes of u's exact PPV (of a
// slice's share, on a slice) without materializing the full vector.
func (d *DiskStore) QueryTopK(u int32, k int) ([]sparse.Entry, error) {
	return serve(d.diskFile, d.own, u, nil, drainTopK(k))
}

// QuerySet constructs the exact PPV of a weighted preference set by
// linearity — the disk-resident analogue of Store.QuerySet.
func (d *DiskStore) QuerySet(p Preference) (sparse.Vector, error) {
	return serve(d.diskFile, d.own, 0, &p, (*sparse.Accumulator).Vector)
}

// QuerySetPacked is QuerySet draining into columnar form.
func (d *DiskStore) QuerySetPacked(p Preference) (sparse.Packed, error) {
	return serve(d.diskFile, d.own, 0, &p, (*sparse.Accumulator).Packed)
}

// HubCount returns the number of hubs whose vectors the store (or
// slice) serves.
func (d *DiskStore) HubCount() int { n, _ := d.owned(secHubPartial); return n }

// LeafCount returns the number of leaf vectors the store (or slice)
// serves.
func (d *DiskStore) LeafCount() int { n, _ := d.owned(secLeafPPV); return n }

// SpaceBytes reports the space of the vectors the store (or slice)
// serves, in Store.SpaceBytes's measure — the per-machine space of
// §6.2.3 — so memory and disk slices of one store report the same. A
// hub's skeleton vector counts as a loader rebuilds it from the plan
// rows.
func (d *DiskStore) SpaceBytes() int64 {
	_, total := d.owned(secHubPartial)
	_, leaves := d.owned(secLeafPPV)
	total += leaves
	for hub, entries := range d.skeletonLen {
		if d.H.IsHub(int32(hub)) && d.own.hub(int32(hub)) {
			total += vectorBytes(int(entries))
		}
	}
	return total
}

// owned counts the vectors of one payload section that d serves, and
// their space.
func (d *DiskStore) owned(sec int8) (count int, bytes int64) {
	for key, sp := range d.idx[sec] {
		if d.own.admits(sec, key) {
			count++
			bytes += vectorBytes(sp.entries())
		}
	}
	return count, bytes
}

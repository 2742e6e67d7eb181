package core

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"exactppr/internal/graph"
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
// Vector payloads stay on disk (or in the page cache). The heap keeps
// all the fold asks of the tree — a hub bit per id and each hub's deal
// rank — and the offset of every record: the hub partials by hub
// ordinal, the leaf PPVs by leaf ordinal, the plan rows by id, each
// list in 32-bit deltas from a 64-bit base per block (index.go). That
// is under 9 bytes per node at web×1, reported by Stats as
// ResidentBytes; the graph and the tree are checked at open and then
// dropped (Graph parses the graph again on demand). Opening checks what
// Load checks before it copies a vector: the header, the tree, the
// section framing, that every record is of its key's kind, that every
// hub has its partial record, and that every hub's own plan row lists
// it (parseStore). Every record's payload is
// checked each time it is viewed, so a corrupt vector fails the query
// that reads it. Queries run the same fold as the in-memory Store
// (fold.go), with the plan row as the source of each path hub's s_u(h),
// so disk and memory answers are bit-identical.
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

	// The vectors the slice serves, counted when the store or view is
	// made, so they answer after Close: hub partials, leaf PPVs, and
	// their space with the hubs' skeleton vectors (SpaceBytes).
	hubs, leaves int
	space        int64
}

// diskFile is the open store file every slice of it shares: the file's
// bytes, the hubs with their deal ranks, and the record offsets. It is
// the disk vectorSource.
type diskFile struct {
	Params ppr.Params

	// data is the whole store file: a read-only mapping, or a heap copy
	// read at open where mapping is unsupported or fails (mapped false).
	data   []byte
	mapped bool

	// n is the node count. The hub index answers isHub, and its deal
	// ranks every SplitDisk slice's hub rule.
	n int
	hubIndex
	// partialRec, leafRec and planRec are the file offsets of the hub
	// partials by hub ordinal, the leaf PPVs by leaf ordinal and the plan
	// rows by id, 0 where the file holds none. Payload offsets and
	// lengths are read from the record headers parseStore checked (span).
	partialRec, leafRec, planRec offsetList
	// resident is the heap the open file keeps: the hub index and the
	// record offsets (DiskStats.ResidentBytes).
	resident int64

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

// span is where a record's payload lies in the file.
type span struct {
	off int64
	len int32
}

// payloadOffset is the offset of the payload of the record at rec: past
// its key and length, at the next 8-byte file offset.
func payloadOffset(rec int64) int64 { return (rec + 8 + 7) &^ 7 }

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
	// ResidentBytes is the heap the open store keeps whatever it
	// serves — the hub bits, the hubs' deal ranks and the record-offset
	// lists, counted at open — and, on a SplitDisk view, the bits of the
	// hubs its slice holds. Vector payloads are not in it: they stay in
	// the file's bytes.
	ResidentBytes int64

	// These always read 0.
	//
	// Deprecated: the perfbench module still names these; they go with
	// perfbench's next change.
	CacheHits, CacheMisses, CoalescedReads, Evictions int64
}

// OpenDiskStore opens a store file for on-demand querying. The file is
// mapped read-only — or, where mapping is unsupported or fails, read
// into one buffer — and parsed once: the header, graph and hierarchy
// are checked, the hubs and their deal ranks are kept, and vector
// payloads are indexed by offset and served zero-copy from those bytes.
// A file that Load rejects fails here too, at open, except for a
// corrupt payload, which fails the queries that view it.
func OpenDiskStore(path string) (*DiskStore, error) { return openDiskStore(path, true) }

// openDiskStore is OpenDiskStore with the mapping optional: mapped
// false reads the file into memory even where mapping would work.
func openDiskStore(path string, mapped bool) (*DiskStore, error) {
	d, _, err := openFile(path, mapped)
	if err != nil {
		return nil, err
	}
	return d.view(nil, d.skeletonLens()), nil
}

// openFile maps the store file at path — or reads it into memory where
// mapping is unsupported or fails, or mapped is false — and parses it
// (parseStore).
func openFile(path string, mapped bool) (*diskFile, *hierarchy.Hierarchy, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
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
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	d, h, err := parseStore(data)
	if err != nil {
		if mapped {
			mmapfile.Unmap(data)
		}
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	d.mapped = mapped
	return d, h, nil
}

// view returns the DiskStore serving own's slice of d (nil: the whole
// store) with the slice's vector counts and space, counted from the
// record offsets and lens, each hub's skeleton length (skeletonLens).
func (d *diskFile) view(own *owner, lens []int32) *DiskStore {
	v := &DiskStore{diskFile: d, own: own}
	for key := range int32(d.numNodes()) {
		if sp, ok := d.span(secHubPartial, key); ok && own.hub(key) {
			v.hubs++
			v.space += sparse.SpaceBytes(sp.entries())
		}
		if sp, ok := d.span(secLeafPPV, key); ok && own.leaf(key) {
			v.leaves++
			v.space += sparse.SpaceBytes(sp.entries())
		}
		// A hub's skeleton vector counts as a loader rebuilds it.
		if d.isHub(key) && own.hub(key) {
			v.space += sparse.SpaceBytes(int(lens[key]))
		}
	}
	return v
}

// skeletonLens counts the entries of each hub's skeleton vector: the
// non-zero values of its column of the plan rows (the rows' zeros are
// the self entries Save injects). A row that fails its framing check,
// or a hub outside the graph, counts nothing here; either fails where
// the row is read.
func (d *diskFile) skeletonLens() []int32 {
	n := int32(d.numNodes())
	lens := make([]int32, n)
	for u := range n {
		sp, ok := d.span(secHubPlan, u)
		if !ok {
			continue
		}
		hubs, s, _ := d.record(sp)
		for k, hub := range hubs {
			if s[k] != 0 && hub >= 0 && hub < n {
				lens[hub]++
			}
		}
	}
	return lens
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
func (d *DiskStore) Close() error { return d.diskFile.close() }

func (d *diskFile) close() error {
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
	return DiskStats{Reads: d.reads.Load(), Mmap: d.mapped, ResidentBytes: d.ResidentBytes()}
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

// span returns where the payload of key's record in section sec lies,
// from the record header parseStore checked; ok is false when the
// section holds no record for key. A base-vector record is handed out
// only for its key's kind — a hub partial for a hub, a leaf PPV for a
// non-hub — so a plan row naming a non-hub finds no partial. The file's
// bytes must be open.
func (d *diskFile) span(sec int8, key int32) (sp span, ok bool) {
	var rec int64
	switch {
	case sec == secHubPlan:
		rec = d.planRec.at(int(key))
	case d.isHub(key) != (sec == secHubPartial):
		return span{}, false
	case sec == secHubPartial:
		rec = d.partialRec.at(d.ordinal(key))
	default:
		rec = d.leafRec.at(int(key) - d.ordinal(key))
	}
	if rec == 0 {
		return span{}, false
	}
	return span{off: payloadOffset(rec), len: int32(binary.LittleEndian.Uint32(d.data[rec+4:]))}, true
}

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
	sp, ok := d.span(section, key)
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
	if d.planRec.at(int(u)) != 0 {
		d.reads.Add(1)
	}
	return d.row(u)
}

// row returns node u's hub-weight row as a view over the file, its hubs
// checked on every call (a node with no path hubs simply has no row).
func (d *diskFile) row(u int32) (planRow, error) {
	sp, ok := d.span(secHubPlan, u)
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

func (d *diskFile) numNodes() int { return d.n }

func (d *diskFile) alpha() float64 { return d.Params.Alpha }

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
func (d *DiskStore) HubCount() int { return d.hubs }

// LeafCount returns the number of leaf vectors the store (or slice)
// serves.
func (d *DiskStore) LeafCount() int { return d.leaves }

// ResidentBytes reports the heap the open store keeps, which every
// slice of it shares, plus a slice's own hub bits:
// DiskStats.ResidentBytes.
func (d *DiskStore) ResidentBytes() int64 { return d.resident + d.own.residentBytes() }

// Graph parses the graph the store file carries from the open file's
// bytes, with the reader the open checked it with (parseGraph). The
// store keeps none of it: each call builds a fresh graph. It fails with
// ErrStoreClosed after Close.
func (d *DiskStore) Graph() (*graph.Graph, error) {
	if err := d.acquire(); err != nil {
		return nil, err
	}
	defer d.release()
	g, _, err := parseGraph(d.data)
	return g, err
}

// SpaceBytes reports the space of the vectors the store (or slice)
// serves, in Store.SpaceBytes's measure — the per-machine space of
// §6.2.3 — so memory and disk slices of one store report the same. A
// hub's skeleton vector counts as a loader rebuilds it from the plan
// rows.
func (d *DiskStore) SpaceBytes() int64 { return d.space }

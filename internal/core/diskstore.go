package core

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sync"

	"exactppr/internal/hierarchy"
	"exactppr/internal/mmapfile"
	"exactppr/internal/ppr"
	"exactppr/internal/sparse"
)

// DiskStore answers exact PPV queries straight from a store file written
// by Save/SaveFile, reading vectors on demand instead of materializing
// them in memory. The paper points out that pre-computed vectors "could
// likely be larger than available main memory" and suggests a disk-based
// implementation (§5.2); this is that implementation, built around three
// compounding serving optimisations:
//
//   - Zero-copy mmap. The store file is memory-mapped by default and
//     vector payloads are served as sparse.PackedView slices aliasing
//     the mapping — no read buffer, no decode copy; the OS page cache is
//     the real vector cache. Unsupported platforms and map failures
//     fall back to the portable ReadAt+decode path, which tests also
//     select with DiskOptions.DisableMmap.
//   - Transposed skeleton index. A query folds exactly one hub-plan row
//     (leaf + Σ (h, S_u(h))·partial) instead of fetching every path
//     hub's entire skeleton vector to read a single scalar. The store
//     file carries the transpose as its fourth section.
//   - Sharded coalescing cache. Decoded vectors (views, in mmap mode)
//     live in an N-way sharded CLOCK cache with per-key singleflight, so
//     a miss storm on a hot hub issues ONE read however many queries are
//     in flight. See diskcache.go.
//
// Only the graph, the hierarchy, and an offset index are always
// resident; vector payloads stay on disk (or in the page cache). Queries
// run the same fold as the in-memory Store (fold.go), with the plan row
// as the source of each path hub's s_u(h), so disk and memory answers
// are bit-identical.
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

// diskFile is the open store file every slice of it shares: the file,
// its mapping, the offset index and the vector cache. It is the disk
// vectorSource.
type diskFile struct {
	H      *hierarchy.Hierarchy
	Params ppr.Params

	f    *os.File
	data []byte // mmap of the whole file; nil on the fallback path

	idx [numSections]map[int32]span // hub partials, skeletons, leaf PPVs, hub plans

	// fmu guards the file AND mapping lifecycle. Queries hold it shared
	// for their entire duration — not just across the read — because in
	// mmap mode the vectors being folded are views over the mapping;
	// Close takes it exclusively, so it cannot unmap bytes an in-flight
	// fold is reading. Drained results never alias the mapping (the
	// accumulator copies on drain), so nothing escapes the lock.
	fmu    sync.RWMutex
	closed bool

	cache *vecCache
	stats diskCounters
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

type cacheKey struct {
	section int8
	key     int32
}

const (
	secHubPartial = 0
	secSkeleton   = 1
	secLeafPPV    = 2
	secHubPlan    = 3
)

// defaultCacheCap bounds the vector cache when DiskOptions.CacheCap is
// zero. In mmap mode the cache holds slice headers, not payloads, so
// this is a count of cheap entries; in fallback mode it bounds real heap
// copies.
const defaultCacheCap = 1024

// DiskOptions tunes OpenDiskStoreWith. The serving commands open with
// the zero value; tests set the fields to drive the fallback path and
// cache eviction.
type DiskOptions struct {
	// DisableMmap forces the portable ReadAt+decode path even where
	// mapping would work — the only path on platforms without mmap.
	DisableMmap bool
	// CacheCap bounds the number of cached vectors (0 = default 1024;
	// minimum 1 per cache shard).
	CacheCap int
}

// DiskStats is a snapshot of the serving counters, exposed through the
// gateway's /stats so cache and mmap regressions are observable in
// production, not just in benchmarks.
type DiskStats struct {
	// CacheHits/CacheMisses count cache probes.
	CacheHits, CacheMisses int64
	// CoalescedReads counts misses that waited on another query's
	// in-flight read instead of issuing their own (the miss-storm fix:
	// under a hot-key storm this approaches CacheMisses while Reads
	// stays near the distinct-vector count).
	CoalescedReads int64
	// Reads counts actual payload loads (ReadAt+decode, or view
	// construction in mmap mode).
	Reads int64
	// Evictions counts CLOCK evictions.
	Evictions int64
	// Cached is the current number of cached vectors.
	Cached int
	// Mmap reports whether the store is serving zero-copy from a
	// memory-mapped file (false: the ReadAt fallback).
	Mmap bool
}

// OpenDiskStore opens a store file for on-demand querying with default
// options (mmap on, 1024-vector cache).
func OpenDiskStore(path string) (*DiskStore, error) {
	return OpenDiskStoreWith(path, DiskOptions{})
}

// OpenDiskStoreWith opens a store file for on-demand querying. The
// header, graph, and hierarchy are loaded; vector payloads are indexed
// by offset and (unless mapping is disabled or unavailable) served
// zero-copy from a read-only memory map.
func OpenDiskStoreWith(path string, opts DiskOptions) (*DiskStore, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	df, err := indexStoreFile(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	cap := opts.CacheCap
	if cap <= 0 {
		cap = defaultCacheCap
	}
	df.cache = newVecCache(0, cap)
	if !opts.DisableMmap {
		// Mapping failures (platform without mmap, exotic filesystems)
		// degrade to the ReadAt path silently: same answers, fewer tricks.
		if data, err := mmapfile.Map(f); err == nil {
			df.data = data
		}
	}
	return &DiskStore{diskFile: df}, nil
}

// Close releases the mapping and the underlying file, for every slice
// of the store at once. It blocks until in-flight queries drain —
// cached vector views alias the mapping, so unmapping mid-fold would be
// a fault, not just a race; queries issued afterwards fail with
// ErrStoreClosed. Close is idempotent.
func (d *DiskStore) Close() error {
	d.fmu.Lock()
	defer d.fmu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	d.cache.purge() // cached views must not survive the mapping
	var err error
	if d.data != nil {
		err = mmapfile.Unmap(d.data)
		d.data = nil
	}
	if cerr := d.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Stats snapshots the serving counters, which every slice of the store
// shares. Safe concurrently with queries and Close (the mapping state
// is read under the lifecycle lock).
func (d *DiskStore) Stats() DiskStats {
	d.fmu.RLock()
	mmap := d.data != nil
	d.fmu.RUnlock()
	return DiskStats{
		CacheHits:      d.stats.hits.Load(),
		CacheMisses:    d.stats.misses.Load(),
		CoalescedReads: d.stats.coalesced.Load(),
		Reads:          d.stats.reads.Load(),
		Evictions:      d.stats.evictions.Load(),
		Cached:         d.cache.len(),
		Mmap:           mmap,
	}
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

// indexStoreFile parses the header exactly as Load does, then walks the
// sections recording each payload's span and skipping its bytes.
func indexStoreFile(f *os.File) (*diskFile, error) {
	cr := &countingReader{r: bufio.NewReaderSize(f, 1<<20)}
	params, opts, g, err := readStoreHeader(cr)
	if err != nil {
		return nil, err
	}
	h, err := hierarchy.Build(g, opts)
	if err != nil {
		return nil, err
	}
	df := &diskFile{H: h, Params: params, f: f}
	for sec := range df.idx {
		df.idx[sec] = make(map[int32]span)
	}
	err = walkSections(cr, g.NumNodes(), func(sec int8, key, vlen int32) error {
		df.idx[sec][key] = span{off: cr.n, len: vlen}
		return cr.skip(int64(vlen))
	})
	if err != nil {
		return nil, err
	}
	return df, nil
}

// countingReader tracks the absolute file offset while reading through a
// buffered reader.
type countingReader struct {
	r *bufio.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) skip(n int64) error {
	k, err := c.r.Discard(int(n))
	c.n += int64(k)
	if err == nil && int64(k) < n {
		return io.ErrUnexpectedEOF
	}
	return err
}

// fetchBufPool recycles the ReadAt buffers of the non-mmap path: a cache
// miss used to allocate a fresh payload-sized slice, which at
// disk-resident cache rates made the read buffer the top allocation of
// the query path. Both decoders copy out of the buffer, so returning it
// to the pool before the decoded vector escapes is safe.
var fetchBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// readPayload returns the raw bytes of one record: a slice of the
// mapping (alias — do not retain past the lifecycle lock without going
// through the cache) or a pooled buffer with done() returning it.
func (d *diskFile) readPayload(sp span) (buf []byte, done func(), err error) {
	if d.data != nil {
		end := sp.off + int64(sp.len)
		if sp.off < 0 || end > int64(len(d.data)) {
			return nil, nil, fmt.Errorf("core: record at %d+%d outside mapped file (%d bytes)", sp.off, sp.len, len(d.data))
		}
		return d.data[sp.off:end:end], func() {}, nil
	}
	bp := fetchBufPool.Get().(*[]byte)
	if cap(*bp) < int(sp.len) {
		*bp = make([]byte, sp.len)
	}
	buf = (*bp)[:sp.len]
	if _, err := d.f.ReadAt(buf, sp.off); err != nil {
		fetchBufPool.Put(bp)
		return nil, nil, err
	}
	return buf, func() { fetchBufPool.Put(bp) }, nil
}

// loadVector decodes one vector record. In mmap mode this is zero-copy:
// the returned Packed is a view over the mapping.
func (d *diskFile) loadVector(section int8, key int32) (cval, error) {
	sp, ok := d.idx[section][key]
	if !ok {
		return cval{}, missingVector(section, key)
	}
	buf, done, err := d.readPayload(sp)
	if err != nil {
		return cval{}, err
	}
	defer done()
	decode := sparse.DecodeColumnar // pooled buffer: must copy
	if d.data != nil {
		decode = sparse.ViewColumnar // aliases the mapping
	}
	ids, scores, err := decode(buf)
	var v sparse.Packed
	if err == nil {
		v, err = sparse.PackedView(ids, scores)
	}
	if err != nil {
		return cval{}, fmt.Errorf("core: vector for section %d key %d: %w", section, key, err)
	}
	if !v.InRange(d.H.G.NumNodes()) {
		return cval{}, fmt.Errorf("core: vector for section %d key %d has out-of-range node ids (corrupt store?)", section, key)
	}
	return cval{vec: v}, nil
}

// fetch reads (and caches) one vector through the coalescing cache.
func (d *diskFile) fetch(section int8, key int32) (sparse.Packed, error) {
	v, err := d.cache.getOrLoad(cacheKey{section, key}, &d.stats, func() (cval, error) {
		return d.loadVector(section, key)
	})
	return v.vec, err
}

// plan returns query node u's hub-weight row, fetched and cached like
// any other vector (a node with no path hubs simply has no row).
func (d *diskFile) plan(u int32) (planRow, error) {
	v, err := d.cache.getOrLoad(cacheKey{secHubPlan, u}, &d.stats, func() (cval, error) {
		sp, ok := d.idx[secHubPlan][u]
		if !ok {
			return cval{}, nil
		}
		buf, done, err := d.readPayload(sp)
		if err != nil {
			return cval{}, err
		}
		defer done()
		var hubs []int32
		var s []float64
		if d.data != nil {
			hubs, s, err = sparse.ViewColumnar(buf)
		} else {
			hubs, s, err = sparse.DecodeColumnar(buf)
		}
		if err != nil {
			return cval{}, fmt.Errorf("core: hub plan for %d: %w", u, err)
		}
		n := int32(d.H.G.NumNodes())
		for _, h := range hubs {
			if h < 0 || h >= n {
				return cval{}, fmt.Errorf("core: hub plan for %d references out-of-range hub %d (corrupt store?)", u, h)
			}
		}
		return cval{plan: planRow{hubs: hubs, s: s}}, nil
	})
	return v.plan, err
}

// The disk vectorSource: the lifecycle lock pins the mapping for a
// whole query, and a path walk is one cached plan row — returned as is
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
// §6.2.3 — so memory and disk slices of one store report the same.
func (d *DiskStore) SpaceBytes() int64 {
	var total int64
	for _, sec := range [...]int8{secHubPartial, secSkeleton, secLeafPPV} {
		_, b := d.owned(sec)
		total += b
	}
	return total
}

// owned counts the vectors of one payload section that d serves, and
// their space.
func (d *DiskStore) owned(sec int8) (count int, bytes int64) {
	admit := d.own.hub
	if sec == secLeafPPV {
		admit = d.own.leaf
	}
	for key, sp := range d.idx[sec] {
		if admit(key) {
			count++
			bytes += vectorBytes(sp.entries())
		}
	}
	return count, bytes
}

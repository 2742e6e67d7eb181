package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"exactppr/internal/graph"
	"exactppr/internal/hierarchy"
	"exactppr/internal/ppr"
	"exactppr/internal/sparse"
)

// Store persistence. The file carries the graph (as a binary edge list,
// with the epoch it has reached), the hierarchy options, the tree itself
// (hierarchy.AppendTree: every node's parent, its hubs with their deal
// ranks, a leaf's non-hub members), the PPR parameters, and the vector
// sections. Opening a file partitions nothing: hierarchy.ParseTree reads
// the tree back and checks it (hierarchy.Hierarchy.Validate), so an
// update-maintained store — hub promotions, deal ranks, graph epoch —
// saves and loads like a freshly built one.
//
// Save writes format version 3, the only one this package reads; a
// version-1 or version-2 file fails with ErrUnsupportedStoreVersion.
//
// Load, LoadFile, LoadShard and OpenDiskStore are one reader: parseStore
// checks the header, the tree and the section framing of the file's
// bytes (the mapped file, or a copy read into memory) and indexes every
// record: one file offset per node and section, 0 for no record, the
// payload's offset and length following from the record's header. That
// index, the tree (each id stored once, at its home) and the graph are
// all an open store keeps on the heap. A DiskStore serves views over
// those bytes; the
// loaders copy the vectors their slice owns into one table per section,
// rebuild the skeleton vectors of the hubs it owns from the plan rows,
// and release the bytes.
// LoadShard(path, i, n) copies only machine i's slice of an n-way split
// (see Split), so a worker never allocates the vectors it does not
// serve. Payload lengths are in the record framing, so a payload outside
// the slice is never parsed; every hub-plan row is still checked.
//
// Layout (little-endian throughout):
//
//	magic "EXPPRST3"
//	params:    alpha, eps float64; maxIter, dangling int32
//	hierarchy: fanout, maxLevels, minSize int32; imbalance float64; seed int64
//	graph:     n, m int32; epoch uint64; m × (u, v int32)
//	tree:      see hierarchy.AppendTree
//	3 sections (hub partials, leaf PPVs, hub plans):
//	           count int32; count × (key int32, payloadLen int32,
//	           pad to 8-byte file offset, columnar payload)
//
// Keys are written strictly increasing, and every section count, key,
// and payload length is bounded by n; readers reject a file that breaks
// any of these before allocating from it (parseStore). Vector payloads
// use the columnar layout of sparse.AppendColumnar — the 8-byte
// alignment of every payload is what lets a mapped DiskStore alias the
// id/score arrays in place. The third section is the only place skeleton
// values are stored, TRANSPOSED (see plan.go): per query node, the
// (hub, s_u(h)) pairs its fold needs, in fold order, so a disk query
// never reads a skeleton vector, and a loader rebuilds each hub's
// skeleton vector from its column of the rows.

var (
	storeMagic   = [8]byte{'E', 'X', 'P', 'P', 'R', 'S', 'T', '3'}
	storeMagicV1 = [8]byte{'E', 'X', 'P', 'P', 'R', 'S', 'T', '1'}
	storeMagicV2 = [8]byte{'E', 'X', 'P', 'P', 'R', 'S', 'T', '2'}
)

// ErrUnsupportedStoreVersion reports a store file written in format
// version 1 or 2, which this package no longer reads.
var ErrUnsupportedStoreVersion = errors.New("core: store format versions 1 and 2 are no longer supported — re-run pprprecomp")

// ErrInvalidStoreParams reports a store header whose PPR parameters
// fail ppr.Params.ValidatePrecompute — alpha outside [1e-6,1), eps not
// positive, a negative maxIter, or a dangling policy other than absorb
// — or whose hierarchy options fail hierarchy.Options.Validate (an
// imbalance that is not finite or is above 1). Such a file cannot come
// from Save. Serving it would fold vectors under parameters they were
// never computed with (a NaN alpha answers NaN entries).
var ErrInvalidStoreParams = errors.New("core: invalid store parameters")

// numSections is the record-section count of a store file.
const numSections = 3

// storeWriter appends a store file to buf and hands it to w in chunks,
// tracking the absolute file offset so payloads can be padded to 8-byte
// offsets.
type storeWriter struct {
	w       io.Writer
	buf     []byte
	written int64 // bytes already handed to w
	err     error
}

func (sw *storeWriter) i32(x int32) { sw.buf = binary.LittleEndian.AppendUint32(sw.buf, uint32(x)) }

func (sw *storeWriter) u64(x uint64) { sw.buf = binary.LittleEndian.AppendUint64(sw.buf, x) }

// record appends one section record: its key, the length of a columnar
// payload of n entries, zero padding up to the next 8-byte file offset,
// and the payload appendPayload appends.
func (sw *storeWriter) record(key int32, n int, appendPayload func([]byte) []byte) {
	sw.i32(key)
	sw.i32(int32(sparse.EncodedSizeColumnar(n)))
	for (sw.written+int64(len(sw.buf)))%8 != 0 {
		sw.buf = append(sw.buf, 0)
	}
	sw.buf = appendPayload(sw.buf)
	sw.spill()
}

// spill hands buf to w once it holds 1 MiB.
func (sw *storeWriter) spill() {
	if len(sw.buf) >= 1<<20 {
		sw.flush()
	}
}

func (sw *storeWriter) flush() {
	if sw.err == nil {
		_, sw.err = sw.w.Write(sw.buf)
	}
	sw.written += int64(len(sw.buf))
	sw.buf = sw.buf[:0]
}

// Save writes the store to w in format version 3. Keys are written
// sorted and plan rows are rank-ordered, so saving the same store twice
// yields byte-identical files. A shard-local store is refused: a file
// always holds a whole store.
func Save(w io.Writer, s *Store) error {
	if o := s.own; o != nil {
		return fmt.Errorf("core: cannot save shard %d of %d: a store file holds a whole store", o.index, o.total)
	}
	sw := &storeWriter{w: w, buf: make([]byte, 0, 1<<20+1<<16)}
	sw.buf = append(sw.buf, storeMagic[:]...)
	p, o, g := s.Params, s.H.Opts, s.H.G
	sw.u64(math.Float64bits(p.Alpha))
	sw.u64(math.Float64bits(p.Eps))
	sw.i32(int32(p.MaxIter))
	sw.i32(int32(p.Dangling))
	sw.i32(int32(o.Fanout))
	sw.i32(int32(o.MaxLevels))
	sw.i32(int32(o.MinSize))
	sw.u64(math.Float64bits(o.Imbalance))
	sw.u64(uint64(o.Seed))
	sw.i32(int32(g.NumNodes()))
	sw.i32(int32(g.NumEdges()))
	sw.u64(g.Epoch())
	for u := range int32(g.NumNodes()) {
		for _, v := range g.Out(u) {
			sw.i32(u)
			sw.i32(v)
		}
		sw.spill()
	}
	var err error
	if sw.buf, err = s.H.AppendTree(sw.buf); err != nil {
		return err
	}

	for _, section := range []Table{s.HubPartial, s.LeafPPV} {
		sw.i32(int32(section.Len()))
		for key, v := range section.All() {
			sw.record(key, v.Len(), func(b []byte) []byte { return sparse.AppendColumnarPacked(b, v) })
		}
	}
	plans := buildHubPlans(s.H, s.Skeleton)
	sw.i32(int32(plans.rows()))
	for u := range int32(g.NumNodes()) {
		if row := plans.row(u); len(row.hubs) > 0 {
			sw.record(u, len(row.hubs), func(b []byte) []byte { return sparse.AppendColumnar(b, row.hubs, row.s) })
		}
	}
	sw.flush()
	return sw.err
}

// SaveFile writes the store to a file path.
func SaveFile(path string, s *Store) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Save(f, s); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// headerLen is the byte length of the header before the edge list:
// magic, params (24), hierarchy options (28), the counts n and m, and
// the graph epoch.
const headerLen = 8 + 24 + 28 + 8 + 8

// minRecordLen is the smallest record a section can hold: key and
// length (8) and an empty vector's payload (8). Every node has a
// hub-partial or a leaf record, so a store file holds at least n of them.
const minRecordLen = 16

// parseStore is the one reader of the store format: it checks the
// header, the tree and the section framing of a whole file's bytes, and
// returns the index of every record in data. The parameters must pass
// the checks Precompute applies and the hierarchy options those Build
// applies (ErrInvalidStoreParams); the tree must pass ParseTree's
// checks (an error wrapping hierarchy.ErrInvalidTree). Counts are
// bounded by the bytes that could hold them before anything is
// allocated from them; a key outside [0,n) or not above the previous
// key (Save writes keys sorted) and a payload longer than an n-entry
// vector are rejected, and so is a hub without its partial or whose own
// plan row lacks it (the fold applies the −α self term through that
// entry). Payloads are checked when they are viewed (fetch, plan).
func parseStore(data []byte) (*diskFile, error) {
	if len(data) < len(storeMagic) {
		return nil, fmt.Errorf("core: not a store file (%d bytes)", len(data))
	}
	switch [8]byte(data) {
	case storeMagic:
	case storeMagicV1, storeMagicV2:
		return nil, ErrUnsupportedStoreVersion
	default:
		return nil, fmt.Errorf("core: not a store file (magic %q)", data[:8])
	}
	if len(data) < headerLen {
		return nil, fmt.Errorf("core: store header truncated at %d bytes", len(data))
	}
	i32 := func(off int) int32 { return int32(binary.LittleEndian.Uint32(data[off:])) }
	f64 := func(off int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(data[off:])) }
	params := ppr.Params{
		Alpha:    f64(8),
		Eps:      f64(16),
		MaxIter:  int(i32(24)),
		Dangling: ppr.DanglingPolicy(i32(28)),
	}
	opts := hierarchy.Options{
		Fanout:    int(i32(32)),
		MaxLevels: int(i32(36)),
		MinSize:   int(i32(40)),
		Imbalance: f64(44),
		Seed:      int64(binary.LittleEndian.Uint64(data[52:])),
	}
	if err := errors.Join(params.ValidatePrecompute(), opts.Validate()); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidStoreParams, err)
	}
	n, m := int(i32(60)), int(i32(64))
	epoch := binary.LittleEndian.Uint64(data[68:])
	off := headerLen
	if n < 0 || m < 0 || n > len(data)/minRecordLen || m > (len(data)-off)/8 {
		return nil, fmt.Errorf("core: corrupt store header (n=%d m=%d) for a %d-byte file", n, m, len(data))
	}
	b := graph.NewBuilder(n)
	for ; off < headerLen+8*m; off += 8 {
		u, v := i32(off), i32(off+4)
		if u < 0 || int(u) >= n || v < 0 || int(v) >= n {
			return nil, fmt.Errorf("core: corrupt edge (%d,%d)", u, v)
		}
		b.AddEdge(u, v)
	}
	h, treeLen, err := hierarchy.ParseTree(data[off:], b.BuildAtEpoch(epoch), opts)
	if err != nil {
		return nil, fmt.Errorf("core: store tree: %w", err)
	}
	off += treeLen
	d := &diskFile{H: h, Params: params, data: data}
	maxLen := sparse.EncodedSizeColumnar(n)
	for sec := range d.idx {
		if len(data)-off < 4 {
			return nil, fmt.Errorf("core: store truncated before section %d", sec)
		}
		count := int(i32(off))
		off += 4
		if maxCount := min(n, (len(data)-off)/minRecordLen); count < 0 || count > maxCount {
			return nil, fmt.Errorf("core: section %d count %d outside [0,%d] (corrupt store?)", sec, count, maxCount)
		}
		d.idx[sec] = make([]int64, n)
		prev := int32(-1)
		for range count {
			if len(data)-off < 8 {
				return nil, fmt.Errorf("core: section %d truncated after key %d", sec, prev)
			}
			key, vlen := i32(off), i32(off+4)
			if key <= prev || int(key) >= n {
				return nil, fmt.Errorf("core: section %d key %d after %d is out of order or outside [0,%d) (corrupt store?)", sec, key, prev, n)
			}
			prev = key
			rec := off
			off = int(payloadOffset(int64(rec)))
			if vlen < 0 || int(vlen) > maxLen || int(vlen) > len(data)-off {
				return nil, fmt.Errorf("core: section %d key %d has corrupt payload length %d", sec, key, vlen)
			}
			d.idx[sec][key] = int64(rec)
			off += int(vlen)
		}
	}
	for u := range int32(n) {
		if !h.IsHub(u) {
			continue
		}
		if d.idx[secHubPartial][u] == 0 {
			return nil, fmt.Errorf("core: store missing partial for hub %d", u)
		}
		// The row's other hubs are checked when it is viewed (plan).
		sp, _ := d.span(secHubPlan, u)
		hubs, _, err := d.record(sp)
		if err != nil || !slices.Contains(hubs, u) {
			return nil, fmt.Errorf("core: hub %d is missing from its own plan row", u)
		}
	}
	d.resident = int64(numSections)*8*int64(n) + h.ResidentBytes() + h.G.ResidentBytes()
	return d, nil
}

// Load reads a store written by Save. It reads all of r (into one
// buffer when r reports its Len, as a bytes.Reader does), parses it as
// OpenDiskStore does, copies every vector onto the heap, and rebuilds
// every skeleton vector from the plan rows, which it checks and drops:
// an in-memory store folds skeletons directly.
func Load(r io.Reader) (*Store, error) {
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		buf.Grow(l.Len() + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, err
	}
	return loadBytes(buf.Bytes(), 0, 0)
}

// LoadFile reads a store from a file path.
func LoadFile(path string) (*Store, error) { return loadFile(path, 0, 0) }

// LoadShard is LoadFile for machine i of n: it returns the shard-local
// store that Split(LoadFile(path), n)[i] returns, copying onto the heap
// only the vectors that slice owns. It parses the file as OpenDiskStore
// does, from a read-only mapping that it releases before returning, so
// a worker never allocates the vectors it does not serve. Where mapping
// is unsupported or fails, the whole file is read into one buffer that
// lives only until the slice is copied out. Every plan row and every
// owned vector is checked in full; the other payloads are never parsed.
func LoadShard(path string, i, n int) (*Store, error) {
	if err := checkShard(i, n); err != nil {
		return nil, err
	}
	return loadFile(path, i, n)
}

// loadFile is loadBytes over the bytes OpenDiskStore opens, which are
// released before it returns.
func loadFile(path string, shard, of int) (*Store, error) {
	d, err := openFile(path, true)
	if err != nil {
		return nil, err
	}
	defer d.close()
	s, err := d.load(shard, of)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// loadBytes parses a whole store file's bytes and copies out the
// shard-local store of machine shard of of — the whole store when of
// is 0.
func loadBytes(data []byte, shard, of int) (*Store, error) {
	d, err := parseStore(data)
	if err != nil {
		return nil, err
	}
	return d.load(shard, of)
}

// load copies the vectors of machine shard of of (every vector when of
// is 0) out of d's checked views into one exact-size table per section,
// so the store shares no byte with d.data: the hub partials and leaf
// PPVs in file order, and between them the skeleton vectors of the
// owned hubs, rebuilt from every checked plan row (skeletons).
func (d *diskFile) load(shard, of int) (*Store, error) {
	var own *owner
	if of != 0 {
		own = &owner{index: shard, total: of, h: d.H}
	}
	s := &Store{H: d.H, Params: d.Params, own: own}
	var err error
	if s.HubPartial, err = d.copySection(secHubPartial, own); err != nil {
		return nil, err
	}
	if s.Skeleton, err = d.skeletons(own); err != nil {
		return nil, err
	}
	if s.LeafPPV, err = d.copySection(secLeafPPV, own); err != nil {
		return nil, err
	}
	return s, nil
}

// copySection copies the vectors of section sec that own admits into a
// table, in file order — which is key order — sizing it from the
// record headers before it parses a payload.
func (d *diskFile) copySection(sec int8, own *owner) (Table, error) {
	t, err := makeTable(d.numNodes(), func(key int32) (int, bool) {
		sp, ok := d.span(sec, key)
		if !ok || !own.admits(sec, key) {
			return 0, false
		}
		return sp.entries(), true
	})
	if err != nil {
		return Table{}, err
	}
	for key := range t.All() {
		v, err := d.fetch(sec, key)
		if err != nil {
			return Table{}, err
		}
		// A payload that passes fetch's framing check holds exactly
		// the entries its header's length implies.
		v.CopyTo(t.span(key))
	}
	return t, nil
}

package core

import (
	"bufio"
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

// Store persistence. The file carries the graph (as a binary edge list),
// the hierarchy OPTIONS (hierarchy construction is deterministic for a
// seed, so the tree is rebuilt rather than serialized — this also sidesteps
// the parent-pointer cycles a naive encoder would choke on), the PPR
// parameters, and the vector sections. The rebuild is one hierarchy.Build
// per Load or OpenDiskStore: O(m log n) per refinement pass, about 0.3 s
// for the 12,000-node web×1 benchmark fixture on a 2-vCPU VM.
//
// Save writes format version 2, the only one this package reads; a
// version-1 file (interleaved payloads, no hub-plan section) fails with
// ErrUnsupportedStoreVersion.
//
// Load, LoadFile, LoadShard and OpenDiskStore are one reader: parseStore
// checks the header and the section framing of the file's bytes (the
// mapped file, or a copy read into memory) and indexes every record. A
// DiskStore serves views over those bytes; the loaders copy out the
// vectors their slice owns and release the bytes. LoadShard(path, i, n)
// copies only machine i's slice of an n-way split (see Split), so a
// worker never allocates the vectors it does not serve. Payload lengths
// are in the record framing, so a payload outside the slice is never
// parsed; every hub-plan row is still checked.
//
// Layout (little-endian throughout):
//
//	magic "EXPPRST2"
//	params:    alpha, eps float64; maxIter, dangling int32
//	hierarchy: fanout, maxLevels, minSize int32; imbalance float64; seed int64
//	graph:     n, m int32; m × (u, v int32)
//	4 sections (hub partials, skeletons, leaf PPVs, hub plans):
//	           count int32; count × (key int32, payloadLen int32,
//	           pad to 8-byte file offset, columnar payload)
//
// Keys are written strictly increasing, and every section count, key,
// and payload length is bounded by n; readers reject a file that breaks
// any of these before allocating from it (parseStore). Vector payloads
// use the columnar layout of sparse.EncodeColumnar — the 8-byte
// alignment of every payload is what lets a mapped DiskStore alias the
// id/score arrays in place. The fourth section is the TRANSPOSED
// skeleton index (see plan.go): per query node, the (hub, s_u(h)) pairs
// its fold needs, in fold order, so a disk query never reads a skeleton
// payload.

var (
	storeMagic   = [8]byte{'E', 'X', 'P', 'P', 'R', 'S', 'T', '2'}
	storeMagicV1 = [8]byte{'E', 'X', 'P', 'P', 'R', 'S', 'T', '1'}
)

// ErrUnsupportedStoreVersion reports a store file written in format
// version 1, which this package no longer reads.
var ErrUnsupportedStoreVersion = errors.New("core: store format version 1 is no longer supported — re-run pprprecomp")

// ErrInvalidStoreParams reports a store header whose PPR parameters
// fail ppr.Params.ValidatePrecompute — alpha outside [1e-6,1), eps not
// positive, a negative maxIter, or a dangling policy other than absorb
// — or whose hierarchy options fail hierarchy.Options.Validate (an
// imbalance that is not finite or is above 1). Such a file cannot come
// from Save. Serving it would fold vectors under parameters they were
// never computed with (a NaN alpha answers NaN entries), and rebuilding
// its tree would not end (a NaN imbalance).
var ErrInvalidStoreParams = errors.New("core: invalid store parameters")

// numSections is the record-section count of a store file.
const numSections = 4

// countingWriter tracks the absolute file offset through a buffered
// writer so Save can pad payloads to 8-byte offsets.
type countingWriter struct {
	w *bufio.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// checkSavable rejects incrementally updated stores (graph epoch > 0):
// the file format rebuilds the hierarchy deterministically from (graph,
// options), which cannot reproduce an update-maintained tree — its hub
// promotions are a function of the delta history, not of the final
// graph. Rebuild with BuildHGPA/Precompute on the updated graph first.
//
// A shard-local store is refused too: a file always holds a whole store.
func checkSavable(s *Store) error {
	if o := s.own; o != nil {
		return fmt.Errorf("core: cannot save shard %d of %d: a store file holds a whole store", o.index, o.total)
	}
	if s.H.G.Epoch() != 0 {
		return fmt.Errorf("core: cannot save an incrementally updated store (graph epoch %d): rebuild from the updated graph first", s.H.G.Epoch())
	}
	return nil
}

// writeStoreHeader emits everything up to the vector sections.
func writeStoreHeader(w io.Writer, params ppr.Params, opts hierarchy.Options, g *graph.Graph) {
	writeU64 := func(x uint64) { binary.Write(w, binary.LittleEndian, x) }
	writeI32 := func(x int32) { binary.Write(w, binary.LittleEndian, x) }

	writeU64(math.Float64bits(params.Alpha))
	writeU64(math.Float64bits(params.Eps))
	writeI32(int32(params.MaxIter))
	writeI32(int32(params.Dangling))

	writeI32(int32(opts.Fanout))
	writeI32(int32(opts.MaxLevels))
	writeI32(int32(opts.MinSize))
	writeU64(math.Float64bits(opts.Imbalance))
	writeU64(uint64(opts.Seed))

	writeI32(int32(g.NumNodes()))
	writeI32(int32(g.NumEdges()))
	for u := int32(0); u < int32(g.NumNodes()); u++ {
		for _, v := range g.Out(u) {
			writeI32(u)
			writeI32(v)
		}
	}
}

func sortedKeys[V any](m map[int32]V) []int32 {
	keys := make([]int32, 0, len(m))
	for key := range m {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	return keys
}

// Save writes the store to w in format version 2. Keys are written
// sorted and plan rows are rank-ordered, so saving the same store twice
// yields byte-identical files.
func Save(w io.Writer, s *Store) error {
	if err := checkSavable(s); err != nil {
		return err
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	cw := &countingWriter{w: bw}
	if _, err := cw.Write(storeMagic[:]); err != nil {
		return err
	}
	writeStoreHeader(cw, s.Params, s.H.Opts, s.H.G)

	writeI32 := func(x int32) { binary.Write(cw, binary.LittleEndian, x) }
	var zeros [8]byte
	writeRecord := func(key int32, payload []byte) error {
		writeI32(key)
		writeI32(int32(len(payload)))
		if pad := int((8 - cw.n%8) % 8); pad > 0 {
			if _, err := cw.Write(zeros[:pad]); err != nil {
				return err
			}
		}
		_, err := cw.Write(payload)
		return err
	}

	for _, section := range []map[int32]sparse.Packed{s.HubPartial, s.Skeleton, s.LeafPPV} {
		writeI32(int32(len(section)))
		for _, key := range sortedKeys(section) {
			if err := writeRecord(key, sparse.EncodeColumnarPacked(section[key])); err != nil {
				return err
			}
		}
	}
	plans := buildHubPlans(s.H, s.Skeleton)
	writeI32(int32(len(plans)))
	for _, key := range sortedKeys(plans) {
		row := plans[key]
		if err := writeRecord(key, sparse.EncodeColumnar(row.hubs, row.s)); err != nil {
			return err
		}
	}
	return bw.Flush()
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
// magic, params (24), hierarchy options (28), and the counts n and m.
const headerLen = 8 + 24 + 28 + 8

// minRecordLen is the smallest record a section can hold: key and
// length (8) and an empty vector's payload (8). Every node has a
// hub-partial or a leaf record, so a store file holds at least n of them.
const minRecordLen = 16

// parseStore is the one reader of the store format: it checks the
// header and the section framing of a whole file's bytes, rebuilds the
// hierarchy, and returns the index of every record in data. The
// parameters must pass the checks Precompute applies and the hierarchy
// options those Build applies (ErrInvalidStoreParams). Counts are
// bounded by the bytes that could hold them before anything is
// allocated from them; a key outside [0,n) or not above the previous
// key (Save writes keys sorted) and a payload longer than an n-entry
// vector are rejected, and so is a hub without its partial or
// skeleton. Payloads are checked when they are viewed (fetch, plan).
func parseStore(data []byte) (*diskFile, error) {
	if len(data) < len(storeMagic) {
		return nil, fmt.Errorf("core: not a store file (%d bytes)", len(data))
	}
	switch [8]byte(data) {
	case storeMagic:
	case storeMagicV1:
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
	h, err := hierarchy.Build(b.Build(), opts)
	if err != nil {
		return nil, err
	}
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
		d.idx[sec] = make(map[int32]span, count)
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
			off += 8
			off += (8 - off%8) % 8 // payloads start at 8-byte file offsets
			if vlen < 0 || int(vlen) > maxLen || int(vlen) > len(data)-off {
				return nil, fmt.Errorf("core: section %d key %d has corrupt payload length %d", sec, key, vlen)
			}
			d.idx[sec][key] = span{off: int64(off), len: vlen}
			off += int(vlen)
		}
	}
	for u := range int32(n) {
		if !h.IsHub(u) {
			continue
		}
		if _, ok := d.idx[secHubPartial][u]; !ok {
			return nil, fmt.Errorf("core: store missing partial for hub %d (seed/version drift?)", u)
		}
		if _, ok := d.idx[secSkeleton][u]; !ok {
			return nil, fmt.Errorf("core: store missing skeleton for hub %d", u)
		}
	}
	return d, nil
}

// Load reads a store written by Save, rebuilding the hierarchy
// deterministically from the stored options. It reads all of r (into
// one buffer when r reports its Len, as a bytes.Reader does), parses it
// as OpenDiskStore does, and copies every vector onto the heap. The
// plan rows are checked and dropped: an in-memory store folds skeletons
// directly, but a corrupt trailer must still be reported at load time,
// not at first serve.
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
	ds, err := OpenDiskStore(path)
	if err != nil {
		return nil, err
	}
	defer ds.Close()
	s, err := ds.load(shard, of)
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
// is 0) out of d's checked views, each into exact-size arrays of its
// own, so the store shares no byte with d.data. It checks every plan
// row through plan.
func (d *diskFile) load(shard, of int) (*Store, error) {
	var own *owner
	if of != 0 {
		own = &owner{index: shard, total: of, h: d.H}
	}
	s := &Store{
		H:          d.H,
		Params:     d.Params,
		HubPartial: make(map[int32]sparse.Packed),
		Skeleton:   make(map[int32]sparse.Packed),
		LeafPPV:    make(map[int32]sparse.Packed),
		own:        own,
	}
	for sec, to := range [...]map[int32]sparse.Packed{s.HubPartial, s.Skeleton, s.LeafPPV} {
		// In file order, so vectors adjacent in the file, such as the
		// hubs of one tree node, are adjacent on the heap too.
		for _, key := range sortedKeys(d.idx[sec]) {
			if !own.admits(int8(sec), key) {
				continue
			}
			v, err := d.fetch(int8(sec), key)
			if err != nil {
				return nil, err
			}
			to[key] = v.Clone()
		}
	}
	for u := range d.idx[secHubPlan] {
		if _, err := d.plan(u); err != nil {
			return nil, err
		}
	}
	return s, nil
}

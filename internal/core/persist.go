package core

import (
	"bufio"
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
// Load and LoadShard are one reader. LoadShard(path, i, n) loads only
// machine i's slice of an n-way split (see Split): it decodes the
// payloads that slice owns and skips the rest, so a worker never
// allocates the vectors it does not serve. Payload lengths are in the
// record framing, so a skipped payload is never parsed; the framing of
// every record and every hub-plan row is still checked.
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
// any of these before allocating from it (walkSections). Vector payloads
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
// fail ppr.Params.ValidatePrecompute: alpha outside [1e-6,1), eps not
// positive, a negative maxIter, or a dangling policy other than absorb.
// Such a file cannot come from Save, and serving it would fold vectors
// under parameters they were never computed with (a NaN alpha answers
// NaN entries).
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

// readStoreHeader parses the magic, parameters, hierarchy options, and
// graph that precede the record sections. The parameters must pass the
// checks Precompute applies (ErrInvalidStoreParams).
func readStoreHeader(cr *countingReader) (params ppr.Params, opts hierarchy.Options, g *graph.Graph, err error) {
	var magic [8]byte
	if _, err = io.ReadFull(cr, magic[:]); err != nil {
		return params, opts, nil, err
	}
	switch magic {
	case storeMagic:
	case storeMagicV1:
		return params, opts, nil, ErrUnsupportedStoreVersion
	default:
		return params, opts, nil, fmt.Errorf("core: not a store file (magic %q)", magic)
	}

	readU64 := func() (x uint64, err error) {
		err = binary.Read(cr, binary.LittleEndian, &x)
		return
	}
	readI32 := func() (x int32, err error) {
		err = binary.Read(cr, binary.LittleEndian, &x)
		return
	}

	var bits uint64
	var x int32
	if bits, err = readU64(); err != nil {
		return
	}
	params.Alpha = math.Float64frombits(bits)
	if bits, err = readU64(); err != nil {
		return
	}
	params.Eps = math.Float64frombits(bits)
	if x, err = readI32(); err != nil {
		return
	}
	params.MaxIter = int(x)
	if x, err = readI32(); err != nil {
		return
	}
	params.Dangling = ppr.DanglingPolicy(x)
	if err = params.ValidatePrecompute(); err != nil {
		err = fmt.Errorf("%w: %w", ErrInvalidStoreParams, err)
		return
	}

	if x, err = readI32(); err != nil {
		return
	}
	opts.Fanout = int(x)
	if x, err = readI32(); err != nil {
		return
	}
	opts.MaxLevels = int(x)
	if x, err = readI32(); err != nil {
		return
	}
	opts.MinSize = int(x)
	if bits, err = readU64(); err != nil {
		return
	}
	opts.Imbalance = math.Float64frombits(bits)
	if bits, err = readU64(); err != nil {
		return
	}
	opts.Seed = int64(bits)

	var n, m int32
	if n, err = readI32(); err != nil {
		return
	}
	if m, err = readI32(); err != nil {
		return
	}
	if n < 0 || m < 0 {
		err = fmt.Errorf("core: corrupt store header (n=%d m=%d)", n, m)
		return
	}
	b := graph.NewBuilder(int(n))
	for e := int32(0); e < m; e++ {
		var u, v int32
		if u, err = readI32(); err != nil {
			return
		}
		if v, err = readI32(); err != nil {
			return
		}
		if u < 0 || u >= n || v < 0 || v >= n {
			err = fmt.Errorf("core: corrupt edge (%d,%d)", u, v)
			return
		}
		b.AddEdge(u, v)
	}
	g = b.Build()
	return
}

// walkSections reads the record sections that follow the header,
// calling rec for each record with cr positioned at its payload; rec
// must consume exactly vlen bytes. It is the one reader of section
// framing, shared by Load and OpenDiskStore, and trusts none of it: a
// count above the node count n, a key outside [0,n) or not above the
// previous key (Save writes keys sorted), and a payload longer than an
// n-entry vector are rejected before anything is allocated from them.
func walkSections(cr *countingReader, n int, rec func(sec int8, key, vlen int32) error) error {
	maxLen := sparse.EncodedSizeColumnar(n)
	for sec := int8(0); sec < numSections; sec++ {
		var count int32
		if err := binary.Read(cr, binary.LittleEndian, &count); err != nil {
			return err
		}
		if count < 0 || int(count) > n {
			return fmt.Errorf("core: section %d count %d outside [0,%d] (corrupt store?)", sec, count, n)
		}
		prev := int32(-1)
		for i := int32(0); i < count; i++ {
			var meta [2]int32 // key, payload length
			if err := binary.Read(cr, binary.LittleEndian, &meta); err != nil {
				return err
			}
			key, vlen := meta[0], meta[1]
			if key <= prev || int(key) >= n {
				return fmt.Errorf("core: section %d key %d after %d is out of order or outside [0,%d) (corrupt store?)", sec, key, prev, n)
			}
			prev = key
			if vlen < 0 || int(vlen) > maxLen {
				return fmt.Errorf("core: section %d key %d has corrupt payload length %d", sec, key, vlen)
			}
			if pad := (8 - cr.n%8) % 8; pad > 0 {
				if err := cr.skip(pad); err != nil {
					return err
				}
			}
			if err := rec(sec, key, vlen); err != nil {
				return err
			}
		}
	}
	return nil
}

// Load reads a store written by Save, rebuilding the hierarchy
// deterministically from the stored options. The plan section is
// validated and discarded: an in-memory store folds skeletons directly,
// but a truncated or corrupt trailer must still be reported at load
// time, not at first serve.
func Load(r io.Reader) (*Store, error) { return load(r, 0, 0) }

// LoadFile reads a store from a file path.
func LoadFile(path string) (*Store, error) { return loadFile(path, 0, 0) }

// LoadShard is LoadFile for machine i of n: it returns the shard-local
// store that Split(LoadFile(path), n)[i] returns, without ever decoding —
// or allocating — the vectors the other machines own. Their payloads
// are skipped; the section framing and the plan rows are still checked
// for every record, and every owned payload is checked in full.
func LoadShard(path string, i, n int) (*Store, error) {
	if err := checkShard(i, n); err != nil {
		return nil, err
	}
	return loadFile(path, i, n)
}

func loadFile(path string, shard, of int) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := load(f, shard, of)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// load is the one store reader: the whole store when of is 0, else the
// shard-local store of machine shard of of.
func load(r io.Reader, shard, of int) (*Store, error) {
	cr := &countingReader{r: bufio.NewReaderSize(r, 1<<20)}
	params, opts, g, err := readStoreHeader(cr)
	if err != nil {
		return nil, err
	}
	h, err := hierarchy.Build(g, opts)
	if err != nil {
		return nil, err
	}
	s := &Store{
		H:          h,
		Params:     params,
		HubPartial: make(map[int32]sparse.Packed),
		Skeleton:   make(map[int32]sparse.Packed),
		LeafPPV:    make(map[int32]sparse.Packed),
	}
	if of != 0 {
		s.own = &owner{index: shard, total: of, h: h}
	}
	sections := [...]map[int32]sparse.Packed{s.HubPartial, s.Skeleton, s.LeafPPV}
	n := g.NumNodes()
	var buf []byte // DecodeColumnar copies out, so one buffer serves every record
	err = walkSections(cr, n, func(sec int8, key, vlen int32) error {
		if sec == secLeafPPV && !s.own.leaf(key) || sec < secLeafPPV && !s.own.hub(key) {
			return cr.skip(int64(vlen))
		}
		buf = slices.Grow(buf[:0], int(vlen))[:vlen]
		if _, err := io.ReadFull(cr, buf); err != nil {
			return err
		}
		ids, scores, err := sparse.DecodeColumnar(buf)
		if err != nil {
			return fmt.Errorf("core: section %d key %d: %w", sec, key, err)
		}
		if sec == secHubPlan {
			for _, hub := range ids {
				if hub < 0 || int(hub) >= n {
					return fmt.Errorf("core: hub plan for %d references out-of-range hub %d (corrupt store?)", key, hub)
				}
			}
			return nil
		}
		vec, err := sparse.PackedView(ids, scores)
		if err != nil {
			return fmt.Errorf("core: section %d key %d: %w", sec, key, err)
		}
		if !vec.InRange(n) {
			return fmt.Errorf("core: vector for key %d has node ids outside [0,%d) (corrupt store?)", key, n)
		}
		sections[sec][key] = vec
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Consistency: every hub the store holds must have its vectors.
	for _, hub := range ownedHubs(h, s.own) {
		if _, ok := s.HubPartial[hub]; !ok {
			return nil, fmt.Errorf("core: store missing partial for hub %d (seed/version drift?)", hub)
		}
		if _, ok := s.Skeleton[hub]; !ok {
			return nil, fmt.Errorf("core: store missing skeleton for hub %d", hub)
		}
	}
	return s, nil
}

package core

import (
	"bufio"
	"encoding/binary"
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
// Two versions exist. Version 2 (written by Save) is designed for
// zero-copy memory-mapped serving; version 1 files remain fully
// loadable and disk-queryable.
//
// Version 2 layout (little-endian throughout):
//
//	magic "EXPPRST2"
//	params:    alpha, eps float64; maxIter, dangling int32
//	hierarchy: fanout, maxLevels, minSize int32; imbalance float64; seed int64
//	graph:     n, m int32; m × (u, v int32)
//	4 sections (hub partials, skeletons, leaf PPVs, hub plans):
//	           count int32; count × (key int32, payloadLen int32,
//	           pad to 8-byte file offset, columnar payload)
//
// Vector payloads use the columnar layout of sparse.EncodeColumnar —
// the 8-byte alignment of every payload is what lets a mapped DiskStore
// alias the id/score arrays in place. The fourth section is the
// TRANSPOSED skeleton index (see plan.go): per query node, the (hub,
// s_u(h)) pairs its fold needs, in fold order, so a disk query never
// reads a skeleton payload.
//
// Version 1 ("EXPPRST1") carries the same header and the first three
// sections with interleaved wire payloads (sparse.Encode) and no
// alignment; Load and OpenDiskStore accept it, synthesizing the plan
// section in memory at open.

var (
	storeMagic   = [8]byte{'E', 'X', 'P', 'P', 'R', 'S', 'T', '1'}
	storeMagicV2 = [8]byte{'E', 'X', 'P', 'P', 'R', 'S', 'T', '2'}
)

// maxVecLen bounds a single payload record (sanity for corrupt files).
const maxVecLen = 1 << 30

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
func checkSavable(s *Store) error {
	if s.H.G.Epoch() != 0 {
		return fmt.Errorf("core: cannot save an incrementally updated store (graph epoch %d): rebuild from the updated graph first", s.H.G.Epoch())
	}
	return nil
}

// writeStoreHeader emits everything up to the vector sections — shared
// verbatim between both format versions.
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
	if _, err := cw.Write(storeMagicV2[:]); err != nil {
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

// saveV1 writes the legacy version-1 format (interleaved wire payloads,
// no plan section). Kept for the cross-version compatibility tests; new
// files should always be written by Save.
func saveV1(w io.Writer, s *Store) error {
	if err := checkSavable(s); err != nil {
		return err
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(storeMagic[:]); err != nil {
		return err
	}
	writeStoreHeader(bw, s.Params, s.H.Opts, s.H.G)
	writeI32 := func(x int32) { binary.Write(bw, binary.LittleEndian, x) }
	for _, section := range []map[int32]sparse.Packed{s.HubPartial, s.Skeleton, s.LeafPPV} {
		writeI32(int32(len(section)))
		for _, key := range sortedKeys(section) {
			writeI32(key)
			enc := sparse.EncodePacked(section[key])
			writeI32(int32(len(enc)))
			if _, err := bw.Write(enc); err != nil {
				return err
			}
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
// graph — the shared prefix of both format versions — and reports which
// version follows.
func readStoreHeader(cr *countingReader) (version int, params ppr.Params, opts hierarchy.Options, g *graph.Graph, err error) {
	var magic [8]byte
	if _, err = io.ReadFull(cr, magic[:]); err != nil {
		return 0, params, opts, nil, err
	}
	switch magic {
	case storeMagic:
		version = 1
	case storeMagicV2:
		version = 2
	default:
		return 0, params, opts, nil, fmt.Errorf("core: not a store file (magic %q)", magic)
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

// readRecordMeta reads one section record's (key, payload length) and —
// for version 2 — consumes the alignment padding, leaving the reader at
// the payload.
func readRecordMeta(cr *countingReader, version int) (key, vlen int32, err error) {
	if err = binary.Read(cr, binary.LittleEndian, &key); err != nil {
		return
	}
	if err = binary.Read(cr, binary.LittleEndian, &vlen); err != nil {
		return
	}
	if vlen < 0 || vlen > maxVecLen {
		err = fmt.Errorf("core: corrupt vector length %d", vlen)
		return
	}
	if version == 2 {
		if pad := (8 - cr.n%8) % 8; pad > 0 {
			if err = cr.skip(pad); err != nil {
				return
			}
		}
	}
	return
}

// decodeSectionPayload turns one vector record's bytes into a Packed
// under the right codec for the file version.
func decodeSectionPayload(version int, buf []byte) (sparse.Packed, error) {
	if version == 1 {
		return sparse.DecodePacked(buf)
	}
	ids, scores, err := sparse.DecodeColumnar(buf)
	if err != nil {
		return sparse.Packed{}, err
	}
	return sparse.PackedView(ids, scores)
}

// Load reads a store written by Save (either format version), rebuilding
// the hierarchy deterministically from the stored options. The version-2
// plan section is validated and discarded: an in-memory store folds
// skeletons directly, but a truncated or corrupt trailer must still be
// reported at load time, not at first serve.
func Load(r io.Reader) (*Store, error) {
	cr := &countingReader{r: bufio.NewReaderSize(r, 1<<20)}
	version, params, opts, g, err := readStoreHeader(cr)
	if err != nil {
		return nil, err
	}
	h, err := hierarchy.Build(g, opts)
	if err != nil {
		return nil, err
	}
	s := &Store{H: h, Params: params}
	sections := []*map[int32]sparse.Packed{&s.HubPartial, &s.Skeleton, &s.LeafPPV}
	for _, section := range sections {
		var count int32
		if err := binary.Read(cr, binary.LittleEndian, &count); err != nil {
			return nil, err
		}
		if count < 0 {
			return nil, fmt.Errorf("core: corrupt section count %d", count)
		}
		mp := make(map[int32]sparse.Packed, count)
		for i := int32(0); i < count; i++ {
			key, vlen, err := readRecordMeta(cr, version)
			if err != nil {
				return nil, err
			}
			buf := make([]byte, vlen)
			if _, err := io.ReadFull(cr, buf); err != nil {
				return nil, err
			}
			vec, err := decodeSectionPayload(version, buf)
			if err != nil {
				return nil, err
			}
			if !vec.InRange(g.NumNodes()) {
				return nil, fmt.Errorf("core: vector for key %d has node ids outside [0,%d) (corrupt store?)", key, g.NumNodes())
			}
			mp[key] = vec
		}
		*section = mp
	}
	if version == 2 {
		var count int32
		if err := binary.Read(cr, binary.LittleEndian, &count); err != nil {
			return nil, err
		}
		if count < 0 {
			return nil, fmt.Errorf("core: corrupt plan section count %d", count)
		}
		for i := int32(0); i < count; i++ {
			key, vlen, err := readRecordMeta(cr, version)
			if err != nil {
				return nil, err
			}
			buf := make([]byte, vlen)
			if _, err := io.ReadFull(cr, buf); err != nil {
				return nil, err
			}
			hubs, _, err := sparse.DecodeColumnar(buf)
			if err != nil {
				return nil, fmt.Errorf("core: hub plan for %d: %w", key, err)
			}
			for _, hub := range hubs {
				if hub < 0 || int(hub) >= g.NumNodes() {
					return nil, fmt.Errorf("core: hub plan for %d references out-of-range hub %d (corrupt store?)", key, hub)
				}
			}
		}
	}
	// Consistency: every hub in the hierarchy must have its vectors.
	for _, hub := range hubsOf(h) {
		if _, ok := s.HubPartial[hub]; !ok {
			return nil, fmt.Errorf("core: store missing partial for hub %d (seed/version drift?)", hub)
		}
		if _, ok := s.Skeleton[hub]; !ok {
			return nil, fmt.Errorf("core: store missing skeleton for hub %d", hub)
		}
	}
	return s, nil
}

// LoadFile reads a store from a file path.
func LoadFile(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func hubsOf(h *hierarchy.Hierarchy) []int32 {
	var out []int32
	for _, n := range h.Nodes() {
		out = append(out, n.Hubs...)
	}
	return out
}

package sparse

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"
)

// Columnar is the store-file payload layout of a sparse vector, designed
// so a memory-mapped file can serve vectors ZERO-COPY: the id and score
// columns are contiguous little-endian arrays that — when the payload
// starts at an 8-byte-aligned file offset — can be reinterpreted as
// []int32 and []float64 slices over the mapped bytes, no decode, no
// allocation. (The wire codec in codec.go interleaves (id, score) pairs
// and therefore always needs a decode pass; it remains the network
// format.)
//
// Layout, for a vector of n entries at an 8-byte-aligned base:
//
//	uint32  n
//	uint32  reserved (zero)
//	int32   ids[n]            — base+8 is 4-byte aligned
//	[4 pad bytes when n is odd]
//	float64 scores[n]         — 8-byte aligned by construction
//
// EncodedSizeColumnar(n) bytes total. Unlike Packed payloads the column
// pair is not required to be sorted — the store's hub-plan rows reuse
// this layout with ids in fold order.

// hostLittleEndian reports whether this machine's byte order matches the
// file format. On the (rare) big-endian host every view degrades to the
// copying decoder.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// EncodedSizeColumnar returns the payload size for n entries.
func EncodedSizeColumnar(n int) int {
	return 8 + 4*n + 4*(n&1) + 8*n
}

// EncodeColumnar serializes parallel id/score columns (any order; the
// caller owns the sorted-or-not invariant).
func EncodeColumnar(ids []int32, scores []float64) []byte {
	if len(ids) != len(scores) {
		panic(fmt.Sprintf("sparse: %d ids vs %d scores", len(ids), len(scores)))
	}
	n := len(ids)
	buf := make([]byte, EncodedSizeColumnar(n))
	binary.LittleEndian.PutUint32(buf, uint32(n))
	off := 8
	for _, id := range ids {
		binary.LittleEndian.PutUint32(buf[off:], uint32(id))
		off += 4
	}
	off += 4 * (n & 1)
	for _, x := range scores {
		binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(x))
		off += 8
	}
	return buf
}

// EncodeColumnarPacked serializes a canonical packed vector in columnar
// form — a straight copy of its two arrays.
func EncodeColumnarPacked(p Packed) []byte { return EncodeColumnar(p.ids, p.scores) }

// columnarBounds validates the framing and returns (n, scoresOffset).
func columnarBounds(buf []byte) (int, int, error) {
	if len(buf) < 8 {
		return 0, 0, fmt.Errorf("sparse: short columnar buffer: %d bytes", len(buf))
	}
	n := int(binary.LittleEndian.Uint32(buf))
	if len(buf) != EncodedSizeColumnar(n) {
		return 0, 0, fmt.Errorf("sparse: columnar buffer length %d does not match count %d", len(buf), n)
	}
	return n, 8 + 4*n + 4*(n&1), nil
}

// DecodeColumnar parses a columnar payload into freshly allocated
// columns — the store loader's path, and ViewColumnar's when a buffer
// is misaligned.
func DecodeColumnar(buf []byte) (ids []int32, scores []float64, err error) {
	n, so, err := columnarBounds(buf)
	if err != nil {
		return nil, nil, err
	}
	ids = make([]int32, n)
	scores = make([]float64, n)
	for k := range ids {
		ids[k] = int32(binary.LittleEndian.Uint32(buf[8+4*k:]))
	}
	for k := range scores {
		scores[k] = math.Float64frombits(binary.LittleEndian.Uint64(buf[so+8*k:]))
	}
	return ids, scores, nil
}

// ViewColumnar returns the id and score columns of a columnar payload as
// slices ALIASING buf — zero copies, zero allocations beyond the slice
// headers. The caller must keep buf alive and unmodified for as long as
// the returned slices are referenced (for a memory-mapped store file:
// until munmap). When the aliasing reinterpretation is unavailable — a
// big-endian host, or buf not 8-byte aligned — it silently falls back to
// DecodeColumnar, so the result is always safe to use; only its sharing
// differs.
func ViewColumnar(buf []byte) (ids []int32, scores []float64, err error) {
	n, so, err := columnarBounds(buf)
	if err != nil {
		return nil, nil, err
	}
	if n == 0 {
		return nil, nil, nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&buf[0]))%8 == 0 {
		ids = unsafe.Slice((*int32)(unsafe.Pointer(&buf[8])), n)
		scores = unsafe.Slice((*float64)(unsafe.Pointer(&buf[so])), n)
		return ids, scores, nil
	}
	return DecodeColumnar(buf)
}

// PackedView wraps externally owned columns as a Packed WITHOUT copying
// — the zero-copy bridge from a memory-mapped store file to the fold
// kernels. It validates the Packed invariant (ids strictly ascending),
// which is the one property binary-search lookups and the O(1) InRange
// check rely on; zero scores are permitted (they fold as no-ops).
//
// Aliasing rules: the returned Packed shares the given arrays. The
// caller must (1) never mutate them afterwards — Packed is promised
// immutable — and (2) not let the Packed outlive the memory backing
// them. DiskStore enforces (2) by holding its lifecycle lock across
// every fold that touches a view, so Close cannot unmap under one.
func PackedView(ids []int32, scores []float64) (Packed, error) {
	if len(ids) != len(scores) {
		return Packed{}, fmt.Errorf("sparse: view has %d ids but %d scores", len(ids), len(scores))
	}
	for k := 1; k < len(ids); k++ {
		if ids[k] <= ids[k-1] {
			return Packed{}, fmt.Errorf("sparse: view ids not strictly ascending at index %d (%d after %d)", k, ids[k], ids[k-1])
		}
	}
	return Packed{ids, scores}, nil
}

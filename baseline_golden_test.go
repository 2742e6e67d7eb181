package exactppr

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"maps"
	"math"
	"slices"
	"testing"

	"exactppr/internal/core"
	"exactppr/internal/fastppv"
	"exactppr/internal/gen"
	"exactppr/internal/ppr"
	"exactppr/internal/sparse"
)

// The baselines' builds are pinned like the HGPA store: SHA-256 over
// every vector of the JW Partial and Skeleton sections and of the
// FastPPV Prime and Blocked sections, key by key in ascending order
// (key, then the length-prefixed bytes of fixedLayout, independent of
// the wire codec), on web×0.1 with fixed hub counts. A change to the
// pre-computation's worker pool or kernels must leave these bytes as
// they are.
const (
	goldenJWDigest      = "66e4495fbc080b47c8e81f43c460bc17765dadd259a4600a29d0f1e46a6b27c9"
	goldenFastPPVDigest = "5f55fa1cdc2813cd7d7134d61d597dc05e9fa65d5cddd4b90caf4e00e36f7a38"
)

// fixedLayout serializes v for the digests: uint32 count, then per
// entry the int32 id and the float64 score's bits, little-endian.
func fixedLayout(v sparse.Packed) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(v.Len()))
	v.ForEach(func(id int32, x float64) {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
	})
	return buf
}

// writeSection hashes a section's vectors in ascending key order.
func writeSection(h hash.Hash, sec map[int32]sparse.Packed) {
	keys := make([]int32, 0, len(sec))
	for k := range sec {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var buf [8]byte
	for _, k := range keys {
		enc := fixedLayout(sec[k])
		binary.LittleEndian.PutUint32(buf[:4], uint32(k))
		binary.LittleEndian.PutUint32(buf[4:], uint32(len(enc)))
		h.Write(buf[:])
		h.Write(enc)
	}
}

func TestGoldenBaselineDigests(t *testing.T) {
	g, err := gen.Dataset("web", 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := ppr.Params{Alpha: 0.15, Eps: 1e-4}

	jw, err := core.PrecomputeJW(g, 16, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	writeSection(h, maps.Collect(jw.Partial.All()))
	writeSection(h, maps.Collect(jw.Skeleton.All()))
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenJWDigest {
		t.Errorf("JW digest %s, want %s", got, goldenJWDigest)
	}

	ix, err := fastppv.BuildIndex(g, 16, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	blocked := make(map[int32]sparse.Packed, len(ix.Blocked))
	for k, v := range ix.Blocked {
		blocked[k] = sparse.Pack(v)
	}
	h = sha256.New()
	writeSection(h, ix.Prime)
	writeSection(h, blocked)
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenFastPPVDigest {
		t.Errorf("FastPPV digest %s, want %s", got, goldenFastPPVDigest)
	}
}

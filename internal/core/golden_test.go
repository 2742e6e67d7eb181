package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"exactppr/internal/sparse"
)

// The cross-path suites compare backends against each other, so a fold
// that reordered floating-point accumulation in every backend at once
// would still pass them. These digests pin the exact bytes: SHA-256 over
// every node's share from shards 0 and 1 of a 2-way Split, and of every
// node's whole-store QueryPacked, on the equivFixture store, each vector
// serialized by fixedLayout and length-prefixed. They were computed
// before the fold was unified across backends and must never change
// unless the arithmetic of the serving identity deliberately does.
var goldenShareDigests = map[string]string{
	"shard0/2": "05d77937f230b4f6112d2b57a6511c27208d8506967c7272ff94e48e02ec2a43",
	"shard1/2": "3f7d59f6444c6db690e4f3419768f0ca938b5e489a25c77e4143a2808e1d593b",
	"store":    "bbefe624706b241d0c8ca4c588c282a9d1f10f6adcf6984ffcc5a4fa6267e964",
}

// fixedLayout serializes v for the golden digests in a layout of this
// test's own, independent of the wire codec: uint32 count, then per
// entry the int32 id and the float64 score's bits, little-endian.
func fixedLayout(v sparse.Packed) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(v.Len()))
	v.ForEach(func(id int32, x float64) {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
	})
	return buf
}

// packedStreamDigest hashes every node's vector from query in
// fixedLayout, length-prefixed, in node order.
func packedStreamDigest(t *testing.T, n int, query func(u int32) (sparse.Packed, error)) string {
	t.Helper()
	return streamDigest(t, n, query, fixedLayout)
}

// streamDigest hashes every node's vector from query, serialized by
// encode and length-prefixed, in node order.
func streamDigest(t *testing.T, n int, query func(u int32) (sparse.Packed, error), encode func(sparse.Packed) []byte) string {
	t.Helper()
	h := sha256.New()
	var lenBuf [4]byte
	for u := int32(0); u < int32(n); u++ {
		v, err := query(u)
		if err != nil {
			t.Fatalf("u=%d: %v", u, err)
		}
		enc := encode(v)
		binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(enc)))
		h.Write(lenBuf[:])
		h.Write(enc)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGoldenShareDigests(t *testing.T) {
	s, _, _ := equivFixture(t)
	shards, err := Split(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := s.H.G.NumNodes()
	got := map[string]string{
		"shard0/2": packedStreamDigest(t, n, shards[0].QueryPacked),
		"shard1/2": packedStreamDigest(t, n, shards[1].QueryPacked),
		"store":    packedStreamDigest(t, n, s.QueryPacked),
	}
	for name, want := range goldenShareDigests {
		if got[name] != want {
			t.Errorf("%s: digest %s, want %s", name, got[name], want)
		}
	}
}

// goldenWireDigest is the SHA-256 of shard 0 of 2's share stream (as
// in TestGoldenShareDigests) in the wire encoding, sparse.EncodePacked.
// It pins the wire format: with the arithmetic pinned above, a change
// to it must change this digest on purpose.
const goldenWireDigest = "d3f7fac6e4d66ffcd3b7fd7987dc70b207dcccd197533966edb12e7463f3ba63"

func TestGoldenWireDigest(t *testing.T) {
	s, _, _ := equivFixture(t)
	shards, err := Split(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := streamDigest(t, s.H.G.NumNodes(), shards[0].QueryPacked, sparse.EncodePacked)
	if got != goldenWireDigest {
		t.Fatalf("wire digest %s, want %s", got, goldenWireDigest)
	}
}

// goldenStoreFileDigest is the SHA-256 of the file Save writes for the
// equivFixture store. It pins the store format: a change to it must
// change this digest on purpose.
const goldenStoreFileDigest = "11eb350a5ee77fd98f73dbe60ee6c7032ddf43819617d09db6713d37177b9db0"

func TestGoldenStoreFileDigest(t *testing.T) {
	s, _, _ := equivFixture(t)
	sum := sha256.Sum256(savedBytes(t, s))
	if got := hex.EncodeToString(sum[:]); got != goldenStoreFileDigest {
		t.Fatalf("store file digest %s, want %s", got, goldenStoreFileDigest)
	}
}

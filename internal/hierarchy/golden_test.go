package hierarchy

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"exactppr/internal/gen"
)

// treeDigest hashes every tree node's (level, members, hubs) in
// pre-order as little-endian int32s, each list prefixed by its length.
// The digest is integer-only, so it is the same on every architecture.
func treeDigest(h *Hierarchy) string {
	sum := sha256.New()
	var buf [4]byte
	put := func(x int32) {
		binary.LittleEndian.PutUint32(buf[:], uint32(x))
		sum.Write(buf[:])
	}
	putList := func(xs []int32) {
		put(int32(len(xs)))
		for _, x := range xs {
			put(x)
		}
	}
	for _, n := range h.Nodes() {
		put(int32(n.Level))
		putList(n.Members())
		putList(n.Hubs)
	}
	return hex.EncodeToString(sum.Sum(nil))
}

// TestGoldenHierarchy pins the hierarchy of the serving benchmark's
// fixture graph (web×1, seed 1). Any change to coarsening, refinement,
// hub selection or the recursion shows up here as a different digest —
// and with it a different store file. Change the pinned digests only for
// a deliberate change to the partitioner's output.
func TestGoldenHierarchy(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full fixture hierarchy twice")
	}
	g, err := gen.Dataset("web", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		fanout int
		want   string
	}{
		{2, "32ef72cf968d6639332a3bbda8e0e27c8dfe9c3c0497359c1a36ac301247cca0"},
		{4, "2ab6af828f4b035549c41ab51f6112d587570513b8347da19f680ee4bc9e77f2"},
	} {
		h, err := Build(g, Options{Fanout: tc.fanout, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got := treeDigest(h); got != tc.want {
			t.Errorf("fanout %d: tree digest %s, want %s (%d nodes, %d hubs)",
				tc.fanout, got, tc.want, len(h.Nodes()), h.TotalHubs())
		}
	}
}

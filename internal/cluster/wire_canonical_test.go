package cluster

import (
	"bytes"
	"context"
	"testing"

	"exactppr/internal/core"
	"exactppr/internal/sparse"
)

// TestSharePayloadCanonical: a worker's share payload is byte-identical
// across repeated encodes of the same query (the canonical sorted wire
// encoding), and decodes as a sorted stream the coordinator can merge.
func TestSharePayloadCanonical(t *testing.T) {
	s := testStore(t)
	shards, err := core.Split(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	pref := core.Preference{Nodes: []int32{4, 9}, Weights: []float64{1, 3}}
	for i, sh := range shards {
		m := &ShardMachine{Shard: sh}
		for _, u := range []int32{0, 77, 299} {
			first, _, err := m.QueryShare(ctx, u)
			if err != nil {
				t.Fatal(err)
			}
			for rep := 0; rep < 3; rep++ {
				again, _, err := m.QueryShare(ctx, u)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(first, again) {
					t.Fatalf("shard %d u=%d: share payload differs across encodes", i, u)
				}
			}
			p, err := sparse.DecodePacked(first)
			if err != nil {
				t.Fatalf("shard %d u=%d: payload not decodable as packed: %v", i, u, err)
			}
			// Canonical payloads round-trip to the identical bytes.
			if !bytes.Equal(sparse.EncodePacked(p), first) {
				t.Fatalf("shard %d u=%d: payload is not canonical", i, u)
			}
		}
		a, _, err := m.QuerySetShare(ctx, pref)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := m.QuerySetShare(ctx, pref)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("shard %d: set share payload differs across encodes", i)
		}
	}
}

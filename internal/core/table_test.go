package core

import (
	"errors"
	"slices"
	"testing"

	"exactppr/internal/sparse"
)

// tableOf builds a table over keys [0, n) holding m's vectors.
func tableOf(tb testing.TB, n int, m map[int32]sparse.Packed) Table {
	tb.Helper()
	t, err := buildTable(n, func(k int32) (sparse.Packed, bool) {
		v, ok := m[k]
		return v, ok
	})
	if err != nil {
		tb.Fatal(err)
	}
	return t
}

// withVector returns a copy of t with v at key: how a test plants a
// vector in a store section.
func withVector(tb testing.TB, t Table, key int32, v sparse.Packed) Table {
	tb.Helper()
	out, err := buildTable(t.keys(), func(k int32) (sparse.Packed, bool) {
		if k == key {
			return v, true
		}
		return t.Get(k)
	})
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// withoutVector returns a copy of t without key's vector: how a test
// simulates a store that lacks a vector its fold needs.
func withoutVector(tb testing.TB, t Table, key int32) Table {
	tb.Helper()
	return t.filter(func(k int32) bool { return k != key })
}

// TestTable: a table tells an absent vector from an empty one, yields
// its vectors in ascending key order, copies what it is built from (a
// view aliases nothing its producer can still write), and refuses a
// section whose entries would not fit int32 offsets, before allocating
// the arenas.
func TestTable(t *testing.T) {
	ids, scores := []int32{1, 4, 6}, []float64{0.5, 0.25, 0.125}
	src, err := sparse.PackedView(ids, scores)
	if err != nil {
		t.Fatal(err)
	}
	vecs := map[int32]sparse.Packed{0: src, 2: {}, 5: src}
	tab := tableOf(t, 7, vecs)
	if tab.Len() != 3 || tab.Entries() != 6 {
		t.Fatalf("table holds %d vectors of %d entries, want 3 of 6", tab.Len(), tab.Entries())
	}
	for k := int32(-1); k <= 7; k++ {
		v, ok := tab.Get(k)
		want, wantOK := vecs[k]
		if ok != wantOK || !slices.Equal(v.Entries(), want.Entries()) {
			t.Fatalf("Get(%d) = %v, %v; want %v, %v", k, v.Entries(), ok, want.Entries(), wantOK)
		}
	}
	var keys []int32
	for k, v := range tab.All() {
		keys = append(keys, k)
		if !slices.Equal(v.Entries(), vecs[k].Entries()) {
			t.Fatalf("All yields %v at key %d, want %v", v.Entries(), k, vecs[k].Entries())
		}
	}
	if !slices.Equal(keys, []int32{0, 2, 5}) {
		t.Fatalf("All yields keys %v, want [0 2 5]", keys)
	}

	// Writing the producer's arrays, or a view's, changes no vector of
	// the table.
	before, _ := tab.Get(0)
	want := before.Entries()
	ids[0], scores[0] = 3, 9
	if got, _ := tab.Get(0); !slices.Equal(got.Entries(), want) {
		t.Fatalf("table vector %v changed with its source's arrays (was %v)", got.Entries(), want)
	}
	if got, _ := tab.Get(5); !slices.Equal(got.Entries(), want) {
		t.Fatalf("table vector %v changed with its source's arrays (was %v)", got.Entries(), want)
	}
	var zero Table
	if _, ok := zero.Get(0); ok || zero.Len() != 0 {
		t.Fatal("the zero table holds a vector")
	}

	// 2^16 entries at each of 2^15+1 keys overflow int32 offsets; the
	// one shared vector is all that is ever allocated.
	big := make([]sparse.Entry, 1<<16)
	for i := range big {
		big[i] = sparse.Entry{ID: int32(i), Score: 1}
	}
	bv, err := sparse.PackEntries(big)
	if err != nil {
		t.Fatal(err)
	}
	_, err = buildTable(1<<15+1, func(int32) (sparse.Packed, bool) { return bv, true })
	if !errors.Is(err, ErrSectionTooLarge) {
		t.Fatalf("overflowing section: err = %v, want ErrSectionTooLarge", err)
	}
}

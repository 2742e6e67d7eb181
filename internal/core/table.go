package core

import (
	"errors"
	"fmt"
	"iter"
	"math"

	"exactppr/internal/sparse"
)

// Table is one vector section of a heap store (Store, JWStore): the
// vectors of keys in [0, n), laid end to end in one ids arena and one
// scores arena in ascending key order, with a dense per-key offset
// index. A table is built once, by buildTable or makeTable, and never
// written again, so the sparse.Packed views it hands out stay valid and
// unchanged for as long as anyone holds them; a store that changes a
// section (ApplyUpdates, Truncate) builds a fresh table in its place.
//
// off[k] is where key k's vector starts in the arenas, or ^start when
// the table holds no vector for k; the vector ends where key k+1's
// starts, and off[n] is the arenas' length. So an absent vector and an
// empty one are told apart, one int32 per key, and offsets bound a
// section to math.MaxInt32 entries (ErrSectionTooLarge).
type Table struct {
	off    []int32
	ids    []int32
	scores []float64
	count  int // the vectors held
}

// ErrSectionTooLarge reports a section whose entries would exceed the
// int32 offset range of a Table.
var ErrSectionTooLarge = errors.New("core: section exceeds the int32 offset range")

// start is where key k's vector starts in the arenas, absent or not.
func (t *Table) start(k int32) int32 {
	if a := t.off[k]; a >= 0 {
		return a
	}
	return ^t.off[k]
}

// Get returns key's vector, a view over the table's arenas, and whether
// the table holds one. A key outside the table is absent.
func (t *Table) Get(key int32) (sparse.Packed, bool) {
	k := int(key)
	if k < 0 || k+1 >= len(t.off) || t.off[k] < 0 {
		return sparse.Packed{}, false
	}
	a, b := t.off[k], t.off[k+1]
	if b < 0 {
		b = ^b
	}
	return sparse.PackedViewUnchecked(t.ids[a:b:b], t.scores[a:b:b]), true
}

// keys is the size of the table's key space.
func (t *Table) keys() int { return max(len(t.off)-1, 0) }

// Len returns the number of vectors the table holds.
func (t *Table) Len() int { return t.count }

// Entries returns the summed length of the table's vectors.
func (t *Table) Entries() int64 { return int64(len(t.ids)) }

// All yields every vector the table holds, in ascending key order.
func (t *Table) All() iter.Seq2[int32, sparse.Packed] {
	return func(yield func(int32, sparse.Packed) bool) {
		for k := range int32(t.keys()) {
			if v, ok := t.Get(k); ok && !yield(k, v) {
				return
			}
		}
	}
}

// spaceBytes is the table's vectors in sparse.SpaceBytes's measure.
func (t *Table) spaceBytes() int64 { return 4*int64(t.count) + 12*t.Entries() }

// residentBytes is the heap the table takes: its index and arenas.
func (t *Table) residentBytes() int64 {
	return 4*int64(cap(t.off)+cap(t.ids)) + 8*int64(cap(t.scores))
}

// makeTable returns a table over keys [0, n) with room for size(k)
// entries at every key that size reports present, zeroed for the
// producer to fill through span. It fails with ErrSectionTooLarge
// before allocating the arenas when they would not fit int32 offsets.
func makeTable(n int, size func(key int32) (int, bool)) (Table, error) {
	t := Table{off: make([]int32, n+1)}
	var total int64
	for k := range int32(n) {
		l, ok := size(k)
		if !ok {
			t.off[k] = ^int32(total)
			continue
		}
		t.off[k] = int32(total)
		if total += int64(l); total > math.MaxInt32 {
			return Table{}, fmt.Errorf("%w: key %d ends at entry %d", ErrSectionTooLarge, k, total)
		}
		t.count++
	}
	t.off[n] = int32(total)
	t.ids, t.scores = make([]int32, total), make([]float64, total)
	return t, nil
}

// span returns the arena slots of key's vector in a table makeTable
// has just made, for its producer to fill.
func (t *Table) span(key int32) ([]int32, []float64) {
	a, b := t.start(key), t.start(key+1)
	return t.ids[a:b:b], t.scores[a:b:b]
}

// buildTable copies into a fresh table over keys [0, n) the vector vec
// returns for every key it reports present. vec is called twice per
// key, once to size the arenas and once to fill them, and must answer
// the same both times.
func buildTable(n int, vec func(key int32) (sparse.Packed, bool)) (Table, error) {
	t, err := makeTable(n, func(k int32) (int, bool) {
		v, ok := vec(k)
		return v.Len(), ok
	})
	if err != nil {
		return Table{}, err
	}
	for k := range int32(n) {
		if v, ok := vec(k); ok {
			v.CopyTo(t.span(k))
		}
	}
	return t, nil
}

// filter copies into a fresh table t's vectors at the keys keep admits.
func (t *Table) filter(keep func(key int32) bool) Table {
	// A subset of t's vectors fits the offsets t's fit: no error.
	f, _ := buildTable(t.keys(), func(k int32) (sparse.Packed, bool) {
		if !keep(k) {
			return sparse.Packed{}, false
		}
		return t.Get(k)
	})
	return f
}

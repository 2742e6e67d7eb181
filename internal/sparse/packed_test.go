package sparse

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestPackUnpackRoundTrip(t *testing.T) {
	cases := []Vector{
		nil,
		{},
		{7: 0.25},
		{3: 1, 1: 2, 2: -3, 100: 0.5},
	}
	for _, v := range cases {
		p := Pack(v)
		if p.Len() != v.Len() {
			t.Fatalf("Pack(%v).Len() = %d, want %d", v, p.Len(), v.Len())
		}
		got := p.Unpack()
		want := v
		if want == nil {
			want = Vector{}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Unpack(Pack(%v)) = %v", v, got)
		}
	}
}

func TestPackedSortedAndGet(t *testing.T) {
	v := Vector{}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		v[int32(rng.Intn(10_000))] = rng.NormFloat64()
	}
	p := Pack(v)
	es := p.Entries()
	if !sort.SliceIsSorted(es, func(a, b int) bool { return es[a].ID < es[b].ID }) {
		t.Fatal("Pack produced unsorted ids")
	}
	for id, x := range v {
		if got := p.Get(id); got != x {
			t.Fatalf("Get(%d) = %v, want %v", id, got, x)
		}
	}
	for _, id := range []int32{-1, 10_001, 1 << 30} {
		if v[id] == 0 && p.Get(id) != 0 {
			t.Fatalf("Get(%d) = %v for absent id", id, p.Get(id))
		}
	}
}

func TestPackEntries(t *testing.T) {
	p, err := PackEntries([]Entry{{5, 1}, {2, 0.5}, {9, 0}, {1, -2}})
	if err != nil {
		t.Fatal(err)
	}
	// zero score at 9 must be dropped, rest sorted by id
	want := []Entry{{1, -2}, {2, 0.5}, {5, 1}}
	if !reflect.DeepEqual(p.Entries(), want) {
		t.Fatalf("PackEntries = %v, want %v", p.Entries(), want)
	}

	if _, err := PackEntries([]Entry{{5, 1}, {5, 2}}); err == nil {
		t.Fatal("PackEntries accepted duplicate ids")
	}
	// duplicates where one copy is zero: zero dropped first, no error
	if _, err := PackEntries([]Entry{{5, 1}, {5, 0}}); err != nil {
		t.Fatalf("duplicate with zero copy should be fine after dropping: %v", err)
	}

	empty, err := PackEntries(nil)
	if err != nil || empty.Len() != 0 {
		t.Fatalf("PackEntries(nil) = %v, %v", empty, err)
	}
}

func TestPackFromDenseIDs(t *testing.T) {
	dense := []float64{0, 1.5, 0, -2, 0, 0.25}
	p := PackFromDenseIDs([]int32{5, 1, 3, 2}, dense) // 2 holds a zero: dropped
	want := []Entry{{1, 1.5}, {3, -2}, {5, 0.25}}
	if !reflect.DeepEqual(p.Entries(), want) {
		t.Fatalf("PackFromDenseIDs = %v, want %v", p.Entries(), want)
	}
	if empty := PackFromDenseIDs(nil, dense); empty.Len() != 0 {
		t.Fatalf("empty ids produced %v", empty.Entries())
	}
}

func TestPackedSumL1Truncated(t *testing.T) {
	p := Pack(Vector{1: 0.5, 2: -0.25, 3: 1e-6})
	if !almostEqual(p.Sum(), 0.5-0.25+1e-6) {
		t.Fatalf("Sum = %v", p.Sum())
	}
	if !almostEqual(p.L1(), 0.75+1e-6) {
		t.Fatalf("L1 = %v", p.L1())
	}
	q, dropped := p.Truncated(1e-4)
	if dropped != 1 || q.Len() != 2 || q.Get(3) != 0 || q.Get(2) != -0.25 {
		t.Fatalf("Truncated = %v, dropped %d", q.Entries(), dropped)
	}
	if p.Len() != 3 {
		t.Fatal("Truncated mutated the receiver")
	}
}

func TestPackedInRange(t *testing.T) {
	if !(Packed{}).InRange(0) {
		t.Fatal("empty vector must be in range of anything")
	}
	p := Pack(Vector{0: 1, 9: 2})
	if !p.InRange(10) || p.InRange(9) {
		t.Fatalf("InRange wrong around the upper bound")
	}
	neg := Pack(Vector{-3: 1, 4: 2})
	if neg.InRange(10) {
		t.Fatal("negative id passed InRange")
	}
}

func TestPackedClone(t *testing.T) {
	p := Pack(Vector{1: 1, 2: 2})
	c := p.Clone()
	c.scores[0] = 99 // mutating the clone must not alias the original
	if p.Get(1) != 1 {
		t.Fatal("Clone shares backing arrays")
	}
}

func TestMergePacked(t *testing.T) {
	a := Pack(Vector{1: 1, 3: 3, 5: 5})
	b := Pack(Vector{2: 2, 3: -3, 6: 6})
	c := Pack(Vector{1: 0.5})
	m := MergePacked([]Packed{a, b, c})
	// entry 3 cancels exactly and must be dropped
	want := Vector{1: 1.5, 2: 2, 5: 5, 6: 6}
	if !reflect.DeepEqual(m.Unpack(), want) {
		t.Fatalf("MergePacked = %v, want %v", m.Unpack(), want)
	}

	if m := MergePacked(nil); m.Len() != 0 {
		t.Fatal("MergePacked(nil) non-empty")
	}
	single := MergePacked([]Packed{a})
	if !reflect.DeepEqual(single.Unpack(), a.Unpack()) {
		t.Fatal("MergePacked of one stream differs")
	}
	if m := MergePacked([]Packed{{}, {}, {}}); m.Len() != 0 {
		t.Fatal("MergePacked of empties non-empty")
	}
}

func TestMergePackedMatchesMapFold(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		parts := make([]Packed, 1+rng.Intn(8))
		want := Vector{}
		for i := range parts {
			v := Vector{}
			for j := 0; j < rng.Intn(40); j++ {
				id := int32(rng.Intn(64))
				x := rng.NormFloat64()
				v[id] = x
			}
			parts[i] = Pack(v)
			want.AddScaled(v, 1)
		}
		got := MergePacked(parts).Unpack()
		if len(got) != len(want) {
			t.Fatalf("trial %d: merge has %d entries, map fold %d", trial, len(got), len(want))
		}
		for id, x := range want {
			if !almostEqual(got[id], x) {
				t.Fatalf("trial %d: entry %d = %v, want %v", trial, id, got[id], x)
			}
		}
	}
}

func TestAccumulatorBasics(t *testing.T) {
	a := AcquireAccumulator(100)
	defer a.Release()
	a.Add(5, 1)
	a.Add(5, 0.5)
	a.Add(3, -2)
	a.AddPacked(Pack(Vector{3: 1, 7: 4}), 2)
	a.AddVector(Vector{9: 3}, 0.5)
	if got := a.Get(5); got != 1.5 {
		t.Fatalf("Get(5) = %v", got)
	}
	// Slot 3 cancels exactly (−2 + 2·1) and must be dropped on drain.
	want := Vector{5: 1.5, 7: 8, 9: 1.5}
	if got := a.Vector(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Vector() = %v, want %v", got, want)
	}
	p := a.Packed()
	if !reflect.DeepEqual(p.Unpack(), want) {
		t.Fatalf("Packed() = %v, want %v", p.Unpack(), want)
	}
	es := p.Entries()
	if !sort.SliceIsSorted(es, func(i, j int) bool { return es[i].ID < es[j].ID }) {
		t.Fatal("Packed() drain not sorted")
	}
}

func TestAccumulatorReuseNoLeakage(t *testing.T) {
	// Same accumulator across many simulated queries: values from one
	// query must never bleed into the next, including slots that were
	// touched before and not after.
	a := AcquireAccumulator(50)
	defer a.Release()
	rng := rand.New(rand.NewSource(3))
	for q := 0; q < 200; q++ {
		want := Vector{}
		for i := 0; i < rng.Intn(20); i++ {
			id := int32(rng.Intn(50))
			x := rng.NormFloat64()
			a.Add(id, x)
			want.Add(id, x)
		}
		got := a.Vector()
		if len(got) != len(want) {
			t.Fatalf("query %d: %d entries, want %d (stale slots leaked?)", q, len(got), len(want))
		}
		for id, x := range want {
			if !almostEqual(got[id], x) {
				t.Fatalf("query %d: entry %d = %v, want %v", q, id, got[id], x)
			}
		}
		a.Reset(50)
	}
}

func TestAccumulatorEpochWrap(t *testing.T) {
	a := &Accumulator{}
	a.Reset(10)
	a.epoch = ^uint32(0) - 1 // two resets away from wrapping
	a.Add(3, 1)
	a.Reset(10)
	if a.Get(3) != 0 {
		t.Fatal("value survived reset")
	}
	a.Add(4, 2)
	a.Reset(10) // epoch wraps to 0 → must clear stamps, not resurrect slot 4
	if a.Get(4) != 0 || a.Get(3) != 0 {
		t.Fatalf("stale values after epoch wrap: %v %v", a.Get(3), a.Get(4))
	}
	a.Add(5, 3)
	if got := a.Vector(); !reflect.DeepEqual(got, Vector{5: 3}) {
		t.Fatalf("after wrap: %v", got)
	}
}

func TestAccumulatorGrow(t *testing.T) {
	a := AcquireAccumulator(4)
	a.Add(3, 1)
	a.Reset(1000) // grow
	a.Add(999, 2)
	if got := a.Vector(); !reflect.DeepEqual(got, Vector{999: 2}) {
		t.Fatalf("after grow: %v", got)
	}
	a.Release()
}

func TestTopKEquivalence(t *testing.T) {
	// Bounded-heap TopK must agree with the full-sort reference on
	// random data, for map, packed, and accumulator alike.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		v := Vector{}
		for i := 0; i < rng.Intn(200); i++ {
			// Coarse scores force plenty of ties to exercise id order.
			v[int32(rng.Intn(500))] = float64(rng.Intn(5)) + 1
		}
		ref := v.Entries()
		sort.Slice(ref, func(a, b int) bool {
			if ref[a].Score != ref[b].Score {
				return ref[a].Score > ref[b].Score
			}
			return ref[a].ID < ref[b].ID
		})
		for _, k := range []int{0, 1, 3, 10, len(v), len(v) + 5} {
			want := ref
			if k < len(want) {
				want = want[:k]
			}
			if got := v.TopK(k); !topKEqual(got, want) {
				t.Fatalf("Vector.TopK(%d) = %v, want %v", k, got, want)
			}
			if got := Pack(v).TopK(k); !topKEqual(got, want) {
				t.Fatalf("Packed.TopK(%d) = %v, want %v", k, got, want)
			}
			a := AcquireAccumulator(500)
			a.AddVector(v, 1)
			if got := a.TopK(k); !topKEqual(got, want) {
				t.Fatalf("Accumulator.TopK(%d) = %v, want %v", k, got, want)
			}
			a.Release()
		}
	}
}

func topKEqual(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestEncodeCanonical(t *testing.T) {
	v := Vector{}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 300; i++ {
		v[int32(rng.Intn(5000))] = rng.NormFloat64()
	}
	first := EncodePacked(Pack(v))
	for i := 0; i < 10; i++ {
		if !bytes.Equal(EncodePacked(Pack(v)), first) {
			t.Fatal("EncodePacked is nondeterministic across repeated encodes")
		}
	}
	// A clone (different map, same values) must also encode identically.
	if !bytes.Equal(EncodePacked(Pack(v.Clone())), first) {
		t.Fatal("equal vectors encode unequally")
	}
	// Explicit zeros (only possible in a hand-built map) are dropped, so
	// vectors that compare equal via Get encode identically too.
	withZero := v.Clone()
	withZero[int32(1<<27)] = 0
	if !bytes.Equal(EncodePacked(Pack(withZero)), first) {
		t.Fatal("explicit zero changed the encoding")
	}
	if EncodedSize(withZero) != len(first) {
		t.Fatal("EncodedSize counts explicit zeros")
	}
}

func TestPackedCodecRoundTrip(t *testing.T) {
	p := Pack(Vector{1: 1, 5: -0.5, 9: 1e-9})
	buf := EncodePacked(p)
	q, err := DecodePacked(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(q.Entries(), p.Entries()) {
		t.Fatalf("round trip = %v, want %v", q.Entries(), p.Entries())
	}
}

// TestDecodePackedLegacyUnsorted: no encoder emits unsorted shares, so
// an unsorted payload is corrupt and DecodePacked rejects it.
func TestDecodePackedLegacyUnsorted(t *testing.T) {
	unsorted := Packed{ids: []int32{4, 1, 3}, scores: []float64{4, 1, 3}}
	if p, err := DecodePacked(EncodePacked(unsorted)); err == nil {
		t.Fatalf("DecodePacked accepted unsorted ids: %v", p.Entries())
	}
}

func TestDecodePackedRejectsDuplicates(t *testing.T) {
	dup := Packed{ids: []int32{2, 2}, scores: []float64{1, 1}}
	if _, err := DecodePacked(EncodePacked(dup)); err == nil {
		t.Fatal("DecodePacked accepted duplicate ids")
	}
}

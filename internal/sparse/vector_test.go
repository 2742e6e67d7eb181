package sparse

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestSetGetAdd(t *testing.T) {
	v := New(4)
	v.Set(3, 0.5)
	if got := v.Get(3); got != 0.5 {
		t.Fatalf("Get(3) = %v, want 0.5", got)
	}
	if got := v.Get(7); got != 0 {
		t.Fatalf("Get(7) = %v, want 0", got)
	}
	v.Add(3, 0.25)
	if got := v.Get(3); got != 0.75 {
		t.Fatalf("after Add, Get(3) = %v, want 0.75", got)
	}
	v.Add(3, -0.75)
	if _, ok := v[3]; ok {
		t.Fatal("Add to exactly zero should delete the entry")
	}
	v.Set(5, 0)
	if _, ok := v[5]; ok {
		t.Fatal("Set(id, 0) should not create an entry")
	}
}

func TestAddZeroNoop(t *testing.T) {
	v := New(0)
	v.Add(1, 0)
	if v.Len() != 0 {
		t.Fatalf("Add(id, 0) created an entry: %v", v)
	}
}

func TestAddScaled(t *testing.T) {
	v := Vector{1: 1, 2: 2}
	o := Vector{2: 1, 3: 3}
	v.AddScaled(o, 2)
	want := Vector{1: 1, 2: 4, 3: 6}
	if !reflect.DeepEqual(v, want) {
		t.Fatalf("AddScaled = %v, want %v", v, want)
	}
	v.AddScaled(o, 0) // no-op
	if !reflect.DeepEqual(v, want) {
		t.Fatalf("AddScaled by 0 changed vector: %v", v)
	}
}

func TestScale(t *testing.T) {
	v := Vector{1: 2, 2: -4}
	v.Scale(0.5)
	if !almostEqual(v[1], 1) || !almostEqual(v[2], -2) {
		t.Fatalf("Scale(0.5) = %v", v)
	}
	v.Scale(0)
	if v.Len() != 0 {
		t.Fatalf("Scale(0) should clear, got %v", v)
	}
}

func TestNorms(t *testing.T) {
	v := Vector{1: 3, 2: -4}
	if got := v.L1(); !almostEqual(got, 7) {
		t.Fatalf("L1 = %v, want 7", got)
	}
	if got := v.LInf(); !almostEqual(got, 4) {
		t.Fatalf("LInf = %v, want 4", got)
	}
	if got := v.Sum(); !almostEqual(got, -1) {
		t.Fatalf("Sum = %v, want -1", got)
	}
}

func TestDot(t *testing.T) {
	a := Vector{1: 2, 2: 3, 5: 1}
	b := Vector{2: 4, 5: -1}
	if got := a.Dot(b); !almostEqual(got, 11) {
		t.Fatalf("Dot = %v, want 11", got)
	}
	if got := b.Dot(a); !almostEqual(got, 11) {
		t.Fatalf("Dot not symmetric: %v", got)
	}
	if got := a.Dot(nil); got != 0 {
		t.Fatalf("Dot with nil = %v, want 0", got)
	}
}

func TestDenseRoundTrip(t *testing.T) {
	d := []float64{0, 0.5, 0, 0.25, 0}
	v := FromDense(d, 0)
	if v.Len() != 2 {
		t.Fatalf("FromDense kept %d entries, want 2", v.Len())
	}
	back := v.Dense(len(d))
	if !reflect.DeepEqual(back, d) {
		t.Fatalf("Dense round trip = %v, want %v", back, d)
	}
}

func TestFromDenseEps(t *testing.T) {
	d := []float64{1e-9, 0.5}
	v := FromDense(d, 1e-6)
	if v.Len() != 1 || !almostEqual(v[1], 0.5) {
		t.Fatalf("FromDense with eps = %v", v)
	}
}

func TestTruncate(t *testing.T) {
	v := Vector{1: 1e-9, 2: 0.5, 3: -1e-9}
	if removed := v.Truncate(1e-6); removed != 2 {
		t.Fatalf("Truncate removed %d, want 2", removed)
	}
	if v.Len() != 1 {
		t.Fatalf("after Truncate: %v", v)
	}
}

func TestDistances(t *testing.T) {
	a := Vector{1: 1, 2: 2}
	b := Vector{2: 1.5, 3: 1}
	if got := L1Distance(a, b); !almostEqual(got, 2.5) {
		t.Fatalf("L1Distance = %v, want 2.5", got)
	}
	if got := LInfDistance(a, b); !almostEqual(got, 1) {
		t.Fatalf("LInfDistance = %v, want 1", got)
	}
	if got := L1Distance(a, a); got != 0 {
		t.Fatalf("L1Distance(a,a) = %v", got)
	}
}

func TestDiff(t *testing.T) {
	a := Vector{1: 1, 2: 2}
	b := Vector{2: 2, 3: 1}
	d := Diff(a, b)
	want := Vector{1: 1, 3: -1}
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("Diff = %v, want %v", d, want)
	}
}

func TestTopK(t *testing.T) {
	v := Vector{1: 0.1, 2: 0.5, 3: 0.3, 4: 0.5}
	top := v.TopK(2)
	if len(top) != 2 || top[0].ID != 2 || top[1].ID != 4 {
		t.Fatalf("TopK = %v (ties must break by smaller id)", top)
	}
	all := v.TopK(10)
	if len(all) != 4 {
		t.Fatalf("TopK(10) returned %d entries", len(all))
	}
}

func TestEntriesSorted(t *testing.T) {
	v := Vector{5: 1, 1: 2, 3: 3}
	es := v.Entries()
	for i := 1; i < len(es); i++ {
		if es[i-1].ID >= es[i].ID {
			t.Fatalf("Entries not sorted: %v", es)
		}
	}
}

func TestClone(t *testing.T) {
	v := Vector{1: 1}
	c := v.Clone()
	c.Set(1, 2)
	if v[1] != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		v := New(0)
		for i := 0; i < rng.Intn(40); i++ {
			v.Set(int32(rng.Intn(1000)), rng.NormFloat64())
		}
		buf := EncodePacked(Pack(v))
		if len(buf) != EncodedSize(v) {
			t.Fatalf("EncodedSize mismatch: %d vs %d", len(buf), EncodedSize(v))
		}
		got, err := DecodePacked(buf)
		if err != nil {
			t.Fatalf("DecodePacked: %v", err)
		}
		if !reflect.DeepEqual(got.Unpack(), v) {
			t.Fatalf("round trip: got %v, want %v", got, v)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := DecodePacked(nil); err == nil {
		t.Fatal("DecodePacked(nil) should fail")
	}
	if _, err := DecodePacked([]byte{1, 0, 0, 0, 9}); err == nil {
		t.Fatal("DecodePacked with truncated payload should fail")
	}
}

// Property: AddScaled then subtracting the same amount is the identity.
func TestQuickAddScaledInverse(t *testing.T) {
	f := func(ids []uint16, vals []float64, c float64) bool {
		if math.IsNaN(c) || math.Abs(c) > 1e6 {
			return true // avoid float overflow; magnitudes are irrelevant here
		}
		v, o := New(0), New(0)
		for i := range ids {
			if i >= len(vals) {
				break
			}
			x := vals[i]
			if math.IsNaN(x) || math.Abs(x) > 1e6 {
				continue
			}
			o.Set(int32(ids[i]), x)
		}
		orig := v.Clone()
		v.AddScaled(o, c)
		v.AddScaled(o, -c)
		// Entries may survive as tiny residue from float cancellation; bound it.
		return L1Distance(v, orig) < 1e-9*(1+math.Abs(c))*(1+o.L1())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: codec round-trips arbitrary vectors.
func TestQuickCodecRoundTrip(t *testing.T) {
	f := func(ids []uint16, vals []float64) bool {
		v := New(0)
		for i := range ids {
			if i >= len(vals) {
				break
			}
			if math.IsNaN(vals[i]) {
				continue
			}
			v.Set(int32(ids[i]), vals[i])
		}
		got, err := DecodePacked(EncodePacked(Pack(v)))
		return err == nil && reflect.DeepEqual(got.Unpack(), v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: L1Distance is a metric on the sampled vectors (symmetry +
// identity + triangle inequality).
func TestQuickL1Metric(t *testing.T) {
	gen := func(rng *rand.Rand) Vector {
		v := New(0)
		for i := 0; i < rng.Intn(12); i++ {
			v.Set(int32(rng.Intn(64)), float64(rng.Intn(21)-10)/4)
		}
		return v
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		a, b, c := gen(rng), gen(rng), gen(rng)
		if d1, d2 := L1Distance(a, b), L1Distance(b, a); !almostEqual(d1, d2) {
			t.Fatalf("not symmetric: %v vs %v", d1, d2)
		}
		if L1Distance(a, a) != 0 {
			t.Fatal("d(a,a) != 0")
		}
		if L1Distance(a, c) > L1Distance(a, b)+L1Distance(b, c)+1e-12 {
			t.Fatal("triangle inequality violated")
		}
	}
}

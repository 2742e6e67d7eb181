package sparse

import (
	"math/rand"
	"sort"
	"testing"
)

// The fold benchmarks model a query: ~40 pre-computed vectors of ~300
// entries each (hub partials along a path) summed into one result. The
// map variants are kept as the baseline the packed representation is
// measured against — the perf trajectory in CI tracks both.

const (
	foldVectors = 40
	foldEntries = 300
	foldUnivers = 100_000
)

func foldFixture() ([]Vector, []Packed) {
	rng := rand.New(rand.NewSource(42))
	vs := make([]Vector, foldVectors)
	ps := make([]Packed, foldVectors)
	for i := range vs {
		v := make(Vector, foldEntries)
		for len(v) < foldEntries {
			v[int32(rng.Intn(foldUnivers))] = rng.Float64()
		}
		vs[i] = v
		ps[i] = Pack(v)
	}
	return vs, ps
}

// BenchmarkFoldMap is the pre-refactor hot path: AddScaled map-into-map.
func BenchmarkFoldMap(b *testing.B) {
	vs, _ := foldFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := New(256)
		for _, v := range vs {
			r.AddScaled(v, 0.5)
		}
		if r.Len() == 0 {
			b.Fatal("empty fold")
		}
	}
}

// BenchmarkFoldAccumulator is the packed hot path: AddPacked into a
// pooled dense accumulator, drained once.
func BenchmarkFoldAccumulator(b *testing.B) {
	_, ps := foldFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := AcquireAccumulator(foldUnivers)
		for _, p := range ps {
			acc.AddPacked(p, 0.5)
		}
		r := acc.Vector()
		acc.Release()
		if len(r) == 0 {
			b.Fatal("empty fold")
		}
	}
}

// BenchmarkFoldAccumulatorPacked drains columnar instead of into a map —
// the worker-share path that feeds the wire encoder directly.
func BenchmarkFoldAccumulatorPacked(b *testing.B) {
	_, ps := foldFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := AcquireAccumulator(foldUnivers)
		for _, p := range ps {
			acc.AddPacked(p, 0.5)
		}
		r := acc.Packed()
		acc.Release()
		if r.Len() == 0 {
			b.Fatal("empty fold")
		}
	}
}

// BenchmarkMergeMap vs BenchmarkMergePacked: the coordinator's
// "sum the k shares" step (k = 8 machines).
func mergeFixture() ([]Vector, []Packed) {
	rng := rand.New(rand.NewSource(7))
	vs := make([]Vector, 8)
	ps := make([]Packed, 8)
	for i := range vs {
		v := make(Vector, 2000)
		for len(v) < 2000 {
			v[int32(rng.Intn(foldUnivers))] = rng.Float64()
		}
		vs[i] = v
		ps[i] = Pack(v)
	}
	return vs, ps
}

func BenchmarkMergeMap(b *testing.B) {
	vs, _ := mergeFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := New(256)
		for _, v := range vs {
			r.AddScaled(v, 1)
		}
	}
}

func BenchmarkMergePacked(b *testing.B) {
	_, ps := mergeFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m := MergePacked(ps); m.Len() == 0 {
			b.Fatal("empty merge")
		}
	}
}

// BenchmarkTopK contrasts the bounded heap with the full-sort reference
// on a 50k-entry result at the gateway's default k.
func BenchmarkTopK(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	v := make(Vector, 50_000)
	for len(v) < 50_000 {
		v[int32(rng.Intn(1<<26))] = rng.Float64()
	}
	p := Pack(v)
	const k = 10
	b.Run("heap-map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if len(v.TopK(k)) != k {
				b.Fatal("short topk")
			}
		}
	})
	b.Run("heap-packed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if len(p.TopK(k)) != k {
				b.Fatal("short topk")
			}
		}
	})
	b.Run("fullsort", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			es := p.Entries()
			sort.Slice(es, func(a, c int) bool {
				if es[a].Score != es[c].Score {
					return es[a].Score > es[c].Score
				}
				return es[a].ID < es[c].ID
			})
			if len(es[:k]) != k {
				b.Fatal("short topk")
			}
		}
	})
}

// BenchmarkEncode measures the packed share encoder, a straight copy.
func BenchmarkEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	v := make(Vector, 5000)
	for len(v) < 5000 {
		v[int32(rng.Intn(1<<26))] = rng.Float64()
	}
	p := Pack(v)
	b.Run("packed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if len(EncodePacked(p)) == 0 {
				b.Fatal("empty")
			}
		}
	})
}

// BenchmarkShareCodec measures one share through the wire codec: a
// worker's encode and the coordinator's decode. The share is sized like
// the serving fixture's (web×1, 12,000 nodes, 2 machines): 113 entries
// drawn from 12,000 ids, so most gaps fit one varint byte.
func BenchmarkShareCodec(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	v := make(Vector, 113)
	for len(v) < 113 {
		v[int32(rng.Intn(12_000))] = rng.Float64()
	}
	p := Pack(v)
	buf := EncodePacked(p)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if len(EncodePacked(p)) != len(buf) {
				b.Fatal("size changed")
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if q, err := DecodePacked(buf); err != nil || q.Len() != p.Len() {
				b.Fatal(err)
			}
		}
	})
}

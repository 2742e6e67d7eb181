package core

import (
	"math/rand"
	"testing"

	"exactppr/internal/gen"
	"exactppr/internal/hierarchy"
	"exactppr/internal/ppr"
	"exactppr/internal/sparse"
)

// TestQuickExactnessRandomized is the randomized end-to-end exactness
// property: for random community graphs, random hierarchy shapes, and
// random query nodes, HGPA ≡ power iteration and the shard decomposition
// sums exactly. This is the paper's Theorems 1/3/4 hammered with fuzz.
func TestQuickExactnessRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	p := ppr.Params{Alpha: 0.15, Eps: 1e-8}
	for trial := 0; trial < 6; trial++ {
		g, err := gen.Community(gen.Config{
			Nodes:        100 + rng.Intn(200),
			AvgOutDegree: 2 + rng.Float64()*3,
			Communities:  1 + rng.Intn(4),
			InterFrac:    rng.Float64() * 0.2,
			MinOutDegree: 1,
			Seed:         int64(trial) * 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		opts := hierarchy.Options{
			Fanout:    2 + rng.Intn(3),
			MaxLevels: rng.Intn(6), // 0 = unbounded
			Seed:      int64(trial),
		}
		s, err := BuildHGPA(g, opts, p, 2)
		if err != nil {
			t.Fatal(err)
		}
		machines := 1 + rng.Intn(7)
		shards, err := Split(s, machines)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			u := int32(rng.Intn(g.NumNodes()))
			got, err := s.Query(u)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ppr.PowerIteration(g, u, p)
			if err != nil {
				t.Fatal(err)
			}
			if d := sparse.LInfDistance(got, want); d > 1e-4 {
				t.Fatalf("trial %d u=%d (fanout=%d levels=%d): L∞ = %v",
					trial, u, opts.Fanout, opts.MaxLevels, d)
			}
			sum := sparse.New(0)
			for _, sh := range shards {
				v, err := sh.Query(u)
				if err != nil {
					t.Fatal(err)
				}
				sum.AddScaled(v, 1)
			}
			if d := sparse.LInfDistance(sum, got); d > 1e-12 {
				t.Fatalf("trial %d u=%d: shards off by %v", trial, u, d)
			}
		}
	}
}

// TestQuickStoreMassBounds: every stored vector is a sub-probability
// vector (entries ≥ 0, sum ≤ 1), for random builds.
func TestQuickStoreMassBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	p := ppr.Params{Alpha: 0.15, Eps: 1e-7}
	for trial := 0; trial < 4; trial++ {
		g, err := gen.Community(gen.Config{
			Nodes: 150, AvgOutDegree: 3, Communities: 2,
			InterFrac: 0.1, MinOutDegree: 1, Seed: int64(trial + 40),
		})
		if err != nil {
			t.Fatal(err)
		}
		s, err := BuildHGPA(g, hierarchy.Options{Seed: int64(rng.Intn(100))}, p, 2)
		if err != nil {
			t.Fatal(err)
		}
		// HubPartial and LeafPPV are rows of a (sub-)stochastic PPV
		// matrix: entries ≥ 0 and total mass ≤ 1. Skeleton[h] is a
		// COLUMN — one entry per source node — so only the per-entry
		// bound applies.
		checkRow := func(kind string, m Table) {
			for key, v := range m.All() {
				var sum float64
				for _, e := range v.Entries() {
					if e.Score < -1e-12 {
						t.Fatalf("%s[%d]: negative entry at %d", kind, key, e.ID)
					}
					sum += e.Score
				}
				if sum > 1+1e-6 {
					t.Fatalf("%s[%d]: mass %v > 1", kind, key, sum)
				}
			}
		}
		checkRow("HubPartial", s.HubPartial)
		checkRow("LeafPPV", s.LeafPPV)
		for key, v := range s.Skeleton.All() {
			for _, e := range v.Entries() {
				if e.Score < -1e-12 || e.Score > 1+1e-9 {
					t.Fatalf("Skeleton[%d]: entry %v at %d out of [0,1]", key, e.Score, e.ID)
				}
			}
		}
	}
}

// TestQuickPersistFuzz: loading truncated prefixes of a valid store file
// must return an error, never panic or silently succeed.
func TestQuickPersistFuzz(t *testing.T) {
	g := testGraph(t, 72)
	s, err := BuildGPA(g, 3, ppr.Params{Alpha: 0.15, Eps: 1e-5}, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	var full sliceBuf
	if err := Save(&full, s); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 30; trial++ {
		cut := rng.Intn(len(full.b))
		if cut == len(full.b) {
			continue
		}
		if _, err := Load(&sliceReader{b: full.b[:cut]}); err == nil {
			t.Fatalf("truncation at %d/%d loaded successfully", cut, len(full.b))
		}
	}
}

type sliceBuf struct{ b []byte }

func (s *sliceBuf) Write(p []byte) (int, error) {
	s.b = append(s.b, p...)
	return len(p), nil
}

type sliceReader struct {
	b   []byte
	pos int
}

func (s *sliceReader) Read(p []byte) (int, error) {
	if s.pos >= len(s.b) {
		return 0, errShortRead
	}
	n := copy(p, s.b[s.pos:])
	s.pos += n
	return n, nil
}

var errShortRead = shortReadError{}

type shortReadError struct{}

func (shortReadError) Error() string { return "EOF" }

package core

import (
	"math"
	"testing"

	"exactppr/internal/hierarchy"
	"exactppr/internal/ppr"
	"exactppr/internal/sparse"
)

func TestQuerySetLinearity(t *testing.T) {
	g := testGraph(t, 50)
	s := buildStore(t, g, hierarchy.Options{Seed: 50})
	pref := Preference{Nodes: []int32{3, 77, 200}}
	got, err := s.QuerySet(pref)
	if err != nil {
		t.Fatal(err)
	}
	// Oracle: power iteration with the same preference set.
	want, err := ppr.PowerIterationSet(g, pref.Nodes, tightParams())
	if err != nil {
		t.Fatal(err)
	}
	if d := sparse.LInfDistance(got, want); d > 1e-4 {
		t.Fatalf("QuerySet vs power iteration L∞ = %v", d)
	}
}

func TestQuerySetWeights(t *testing.T) {
	g := testGraph(t, 51)
	s := buildStore(t, g, hierarchy.Options{Seed: 51})
	// Weight node 5 three times node 9: result = 0.75·r5 + 0.25·r9.
	got, err := s.QuerySet(Preference{Nodes: []int32{5, 9}, Weights: []float64{3, 1}})
	if err != nil {
		t.Fatal(err)
	}
	r5, _ := s.Query(5)
	r9, _ := s.Query(9)
	want := sparse.New(0)
	want.AddScaled(r5, 0.75)
	want.AddScaled(r9, 0.25)
	if d := sparse.LInfDistance(got, want); d > 1e-12 {
		t.Fatalf("weighted QuerySet L∞ = %v", d)
	}
}

func TestQuerySetErrors(t *testing.T) {
	g := testGraph(t, 52)
	s := buildStore(t, g, hierarchy.Options{Seed: 52})
	cases := []Preference{
		{},
		{Nodes: []int32{1}, Weights: []float64{1, 2}},
		{Nodes: []int32{-1}},
		{Nodes: []int32{int32(g.NumNodes())}},
		{Nodes: []int32{1, 1}},
		{Nodes: []int32{1}, Weights: []float64{0}},
		{Nodes: []int32{1}, Weights: []float64{-2}},
	}
	for i, p := range cases {
		if _, err := s.QuerySet(p); err == nil {
			t.Errorf("case %d: QuerySet(%+v) should fail", i, p)
		}
	}
}

// TestQuerySetRejectsNonFiniteWeights: a NaN weight used to slip past
// the "≤ 0" check and return NaN scores, and two 1e308 weights summed to
// +Inf and normalized to an all-zero vector returned as exact. Both
// backends must refuse them; a huge but finite sum still answers.
func TestQuerySetRejectsNonFiniteWeights(t *testing.T) {
	g := testGraph(t, 54)
	s := buildStore(t, g, hierarchy.Options{Seed: 54})
	shards, err := Split(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range [][]float64{
		{math.NaN(), 1},
		{math.Inf(1), 1},
		{math.Inf(-1), 1},
		{1e308, 1e308},
	} {
		p := Preference{Nodes: []int32{5, 9}, Weights: w}
		if err := p.CheckWeights(); err == nil {
			t.Errorf("CheckWeights(%v) accepted", w)
		}
		if _, err := s.QuerySet(p); err == nil {
			t.Errorf("Store.QuerySet(%v) accepted", w)
		}
		if _, err := shards[0].QuerySet(p); err == nil {
			t.Errorf("Shard.QuerySet(%v) accepted", w)
		}
	}
	got, err := s.QuerySet(Preference{Nodes: []int32{5, 9}, Weights: []float64{1.2e308, 0.4e308}})
	if err != nil {
		t.Fatal(err)
	}
	r5, _ := s.Query(5)
	r9, _ := s.Query(9)
	want := sparse.New(0)
	want.AddScaled(r5, 0.75)
	want.AddScaled(r9, 0.25)
	if d := sparse.LInfDistance(got, want); d > 1e-12 {
		t.Fatalf("huge finite weights: L∞ = %v", d)
	}
}

func TestShardQuerySetSumsToCentral(t *testing.T) {
	g := testGraph(t, 53)
	s := buildStore(t, g, hierarchy.Options{Seed: 53})
	pref := Preference{Nodes: []int32{10, 20, 30}, Weights: []float64{1, 2, 3}}
	want, err := s.QuerySet(pref)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := Split(s, 5)
	if err != nil {
		t.Fatal(err)
	}
	sum := sparse.New(0)
	for _, sh := range shards {
		v, err := sh.QuerySet(pref)
		if err != nil {
			t.Fatal(err)
		}
		sum.AddScaled(v, 1)
	}
	if d := sparse.LInfDistance(sum, want); d > 1e-12 {
		t.Fatalf("shard QuerySet sum L∞ = %v", d)
	}
}

func TestQueryTopK(t *testing.T) {
	g := testGraph(t, 54)
	s := buildStore(t, g, hierarchy.Options{Seed: 54})
	top, err := s.QueryTopK(7, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 5 {
		t.Fatalf("got %d entries", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i-1].Score < top[i].Score {
			t.Fatal("TopK not sorted")
		}
	}
	if _, err := s.QueryTopK(-1, 5); err == nil {
		t.Fatal("bad node should fail")
	}
}

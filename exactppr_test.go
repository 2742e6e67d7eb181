package exactppr

import (
	"bytes"
	"strings"
	"testing"
)

// TestPublicAPIEndToEnd exercises the façade exactly as the README
// quickstart does: build a graph, precompute, query, verify against the
// power-iteration oracle, round-trip through persistence, and run a
// distributed query.
func TestPublicAPIEndToEnd(t *testing.T) {
	g, err := GenerateCommunityGraph(GenConfig{
		Nodes: 300, AvgOutDegree: 4, Communities: 3,
		InterFrac: 0.05, MinOutDegree: 1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	params := Params{Alpha: 0.15, Eps: 1e-7}
	store, err := BuildHGPA(g, HierarchyOptions{Seed: 2}, params, 0)
	if err != nil {
		t.Fatal(err)
	}
	ppv, err := store.Query(10)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := PowerIteration(g, 10, params)
	if err != nil {
		t.Fatal(err)
	}
	top := ppv.TopK(5)
	if len(top) != 5 || top[0].ID != 10 {
		t.Fatalf("query node should rank first: %v", top)
	}
	var maxDiff float64
	for id, x := range oracle {
		d := x - ppv.Get(id)
		if d < 0 {
			d = -d
		}
		if d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 1e-4 {
		t.Fatalf("façade query drifted from oracle: %v", maxDiff)
	}

	var buf bytes.Buffer
	if err := SaveStore(&buf, store); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadStore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	again, err := loaded.Query(10)
	if err != nil {
		t.Fatal(err)
	}
	if again.Len() != ppv.Len() {
		t.Fatal("loaded store answers differently")
	}

	coord, err := NewLocalCluster(store, 4)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := coord.Query(10)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BytesReceived <= 0 || stats.Result.Len() == 0 {
		t.Fatalf("distributed query stats: %+v", stats)
	}
}

func TestEdgeListFacade(t *testing.T) {
	g, err := LoadEdgeList(strings.NewReader("0 1\n1 2\n2 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	b := NewGraphBuilder(2)
	b.AddEdge(0, 1)
	if b.Build().NumEdges() != 1 {
		t.Fatal("builder facade broken")
	}
}

func TestDefaultParams(t *testing.T) {
	p := DefaultParams()
	if p.Alpha != 0.15 || p.Eps != 1e-4 {
		t.Fatalf("defaults changed: %+v", p)
	}
}

// TestBuildHGPAWithInfoFacade: the facade's info block reports the
// kernel work, and the store it returns answers exactly.
func TestBuildHGPAWithInfoFacade(t *testing.T) {
	g, err := GenerateCommunityGraph(GenConfig{Nodes: 80, AvgOutDegree: 3, Communities: 2, MinOutDegree: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Alpha: 0.15, Eps: 1e-10}
	store, info, err := BuildHGPAWithInfo(g, HierarchyOptions{Seed: 2}, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if info.Vectors == 0 || info.Pushes == 0 {
		t.Fatalf("info = %+v", info)
	}
	ppv, err := store.Query(11)
	if err != nil {
		t.Fatal(err)
	}
	want, err := PowerIteration(g, 11, p)
	if err != nil {
		t.Fatal(err)
	}
	for id, x := range want {
		if d := ppv.Get(id) - x; d > 1e-6 || d < -1e-6 {
			t.Fatalf("entry %d differs from power iteration by %v", id, d)
		}
	}
}

func TestGenerateDatasetFacade(t *testing.T) {
	g, err := GenerateDataset("email", 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() == 0 {
		t.Fatal("empty dataset")
	}
	if _, err := GenerateDataset("bogus", 1, 1); err == nil {
		t.Fatal("unknown dataset should fail")
	}
}

func TestPreferenceSetFacade(t *testing.T) {
	g, err := GenerateCommunityGraph(GenConfig{Nodes: 50, AvgOutDegree: 3, Communities: 1, MinOutDegree: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	v, err := PowerIterationSet(g, []int32{1, 2, 3}, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() == 0 {
		t.Fatal("empty preference-set PPV")
	}
}

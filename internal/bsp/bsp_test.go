package bsp

import (
	"testing"

	"exactppr/internal/gen"
	"exactppr/internal/graph"
	"exactppr/internal/ppr"
	"exactppr/internal/sparse"
)

func params() ppr.Params { return ppr.Params{Alpha: 0.15, Eps: 1e-8} }

func community(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.Community(gen.Config{
		Nodes: 400, AvgOutDegree: 4, Communities: 4,
		InterFrac: 0.05, MinOutDegree: 1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewEngineErrors(t *testing.T) {
	g := community(t)
	if _, err := NewEngine(g, VertexCentric, 0); err == nil {
		t.Fatal("workers=0 should fail")
	}
	if _, err := NewEngine(g, Mode(99), 2); err == nil {
		t.Fatal("unknown mode should fail")
	}
	if _, err := NewEngine(graph.FromAdjacency(nil), VertexCentric, 1); err == nil {
		t.Fatal("empty graph should fail")
	}
}

func TestRunPPVErrors(t *testing.T) {
	g := community(t)
	e, err := NewEngine(g, VertexCentric, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunPPV(-1, params()); err == nil {
		t.Fatal("bad query should fail")
	}
	if _, err := e.RunPPV(0, ppr.Params{Alpha: 9, Eps: 1e-4}); err == nil {
		t.Fatal("bad params should fail")
	}
}

func TestVertexCentricMatchesPowerIteration(t *testing.T) {
	g := community(t)
	want, err := ppr.PowerIteration(g, 17, params())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 5} {
		e, err := NewEngine(g, VertexCentric, workers)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := e.RunPPV(17, params())
		if err != nil {
			t.Fatal(err)
		}
		if d := sparse.LInfDistance(stats.Result, want); d > 1e-6 {
			t.Errorf("workers=%d: L∞ = %v", workers, d)
		}
		if stats.Supersteps < 5 {
			t.Errorf("workers=%d: suspiciously few supersteps %d", workers, stats.Supersteps)
		}
	}
}

func TestBlockCentricMatchesPowerIteration(t *testing.T) {
	g := community(t)
	want, err := ppr.PowerIteration(g, 42, params())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		e, err := NewEngine(g, BlockCentric, workers)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := e.RunPPV(42, params())
		if err != nil {
			t.Fatal(err)
		}
		if d := sparse.LInfDistance(stats.Result, want); d > 1e-5 {
			t.Errorf("workers=%d: L∞ = %v", workers, d)
		}
	}
}

func TestSingleWorkerNoNetwork(t *testing.T) {
	g := community(t)
	for _, mode := range []Mode{VertexCentric, BlockCentric} {
		e, err := NewEngine(g, mode, 1)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := e.RunPPV(3, params())
		if err != nil {
			t.Fatal(err)
		}
		if stats.Messages != 0 || stats.NetworkBytes != 0 {
			t.Errorf("%v: single worker must not use the network: %d msgs", mode, stats.Messages)
		}
	}
}

// TestBlogelBeatsPregelOnCommunication reproduces the ordering of
// Figures 21–22: block placement plus local convergence must cut both
// supersteps and cross-worker traffic on community graphs.
func TestBlogelBeatsPregelOnCommunication(t *testing.T) {
	g := community(t)
	pregel, err := NewEngine(g, VertexCentric, 4)
	if err != nil {
		t.Fatal(err)
	}
	blogel, err := NewEngine(g, BlockCentric, 4)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := pregel.RunPPV(7, params())
	if err != nil {
		t.Fatal(err)
	}
	bs, err := blogel.RunPPV(7, params())
	if err != nil {
		t.Fatal(err)
	}
	if bs.Supersteps >= ps.Supersteps {
		t.Errorf("blogel supersteps %d ≥ pregel %d", bs.Supersteps, ps.Supersteps)
	}
	if bs.NetworkBytes >= ps.NetworkBytes {
		t.Errorf("blogel bytes %d ≥ pregel %d", bs.NetworkBytes, ps.NetworkBytes)
	}
}

// TestCommGrowsWithWorkers reproduces the trend the paper observes on
// Pregel+: more machines ⇒ more cross-worker messages for the same job.
func TestCommGrowsWithWorkers(t *testing.T) {
	g := community(t)
	var prev int64 = -1
	for _, workers := range []int{1, 2, 8} {
		e, err := NewEngine(g, VertexCentric, workers)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := e.RunPPV(11, params())
		if err != nil {
			t.Fatal(err)
		}
		if stats.NetworkBytes <= prev {
			t.Errorf("workers=%d: bytes %d not greater than previous %d",
				workers, stats.NetworkBytes, prev)
		}
		prev = stats.NetworkBytes
	}
}

func TestModeString(t *testing.T) {
	if VertexCentric.String() != "pregel+" || BlockCentric.String() != "blogel" {
		t.Fatal("mode names changed — experiment tables depend on them")
	}
}

func TestMessagesCountedOnlyAcrossWorkers(t *testing.T) {
	// Two disconnected cliques placed as two blocks: block mode must send
	// nothing at all.
	b := graph.NewBuilder(8)
	for i := int32(0); i < 4; i++ {
		for j := int32(0); j < 4; j++ {
			if i != j {
				b.AddEdge(i, j)
				b.AddEdge(i+4, j+4)
			}
		}
	}
	g := b.Build()
	e, err := NewEngine(g, BlockCentric, 2)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := e.RunPPV(0, params())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Messages != 0 {
		t.Fatalf("disconnected blocks exchanged %d messages", stats.Messages)
	}
	want, err := ppr.PowerIteration(g, 0, params())
	if err != nil {
		t.Fatal(err)
	}
	if d := sparse.LInfDistance(stats.Result, want); d > 1e-6 {
		t.Fatalf("L∞ = %v", d)
	}
}

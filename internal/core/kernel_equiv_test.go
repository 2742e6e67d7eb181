package core

import (
	"errors"
	"maps"
	"math"
	"math/rand"
	"testing"

	"exactppr/internal/gen"
	"exactppr/internal/graph"
	"exactppr/internal/hierarchy"
	"exactppr/internal/ppr"
	"exactppr/internal/sparse"
)

// The kernel contract at store level: every vector a store holds — built
// by the worker pools on reused ppr.Scratch buffers, or maintained
// through update batches — agrees within 1e-9 per entry with a fresh
// call to the exported kernel entries for the same tree node. (ppr's own
// tests pin those entries to the dense oracle kernels.)
const kernelTol = 1e-9

// kernelTestGraph returns a fresh, identical graph per call so each
// store owns its root graph (ApplyUpdates mutates it).
func kernelTestGraph(t *testing.T, seed int64) *graph.Graph {
	t.Helper()
	g, err := gen.Community(gen.Config{
		Nodes: 300, AvgOutDegree: 4, Communities: 3,
		InterFrac: 0.08, Seed: seed, // MinOutDegree 0: keep some dangling nodes in play
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// toGlobal maps a packed vector from a tree node's local ids to global
// ids, dropping local id skip (-1 for none).
func toGlobal(t *testing.T, sub *graph.Subgraph, v sparse.Packed, skip int32) sparse.Packed {
	t.Helper()
	var es []sparse.Entry
	v.ForEach(func(id int32, x float64) {
		if id != skip {
			es = append(es, sparse.Entry{ID: sub.Parent(id), Score: x})
		}
	})
	p, err := sparse.PackEntries(es)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// referenceStore recomputes every vector of h's tree with one fresh
// ppr.PartialVector or ppr.SkeletonVector call per vector.
func referenceStore(t *testing.T, h *hierarchy.Hierarchy, p ppr.Params) *Store {
	t.Helper()
	ref := &Store{H: h, Params: p}
	hubPartial, skeleton, leafPPV := map[int32]sparse.Packed{}, map[int32]sparse.Packed{}, map[int32]sparse.Packed{}
	for _, n := range h.Nodes() {
		tasks := nodeTasks(n)
		withSubgraphs(h.G, tasks, 1)
		for _, task := range tasks {
			sub := task.sub
			g, lu := sub.G, sub.Local(task.u)
			partial, _, err := ppr.PartialVector(g, lu, task.isHub, p)
			if err != nil {
				t.Fatal(err)
			}
			if !task.hub {
				leafPPV[task.u] = toGlobal(t, sub, partial, -1)
				continue
			}
			hubPartial[task.u] = toGlobal(t, sub, partial, lu)
			skel, err := ppr.SkeletonVector(g, lu, p)
			if err != nil {
				t.Fatal(err)
			}
			skeleton[task.u] = toGlobal(t, sub, skel, -1)
		}
	}
	ref.HubPartial = tableOf(t, h.G.NumNodes(), hubPartial)
	ref.Skeleton = tableOf(t, h.G.NumNodes(), skeleton)
	ref.LeafPPV = tableOf(t, h.G.NumNodes(), leafPPV)
	return ref
}

func comparePackedMaps(t *testing.T, section string, got, want map[int32]sparse.Packed) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d keys, want %d", section, len(got), len(want))
	}
	for key, w := range want {
		gv, ok := got[key]
		if !ok {
			t.Fatalf("%s: key %d missing", section, key)
		}
		if gv.Len() != w.Len() {
			t.Fatalf("%s[%d]: %d entries, want %d", section, key, gv.Len(), w.Len())
		}
		w.ForEach(func(id int32, x float64) {
			if math.Abs(gv.Get(id)-x) > kernelTol {
				t.Fatalf("%s[%d]: entry %d = %v, want %v", section, key, id, gv.Get(id), x)
			}
		})
	}
}

func compareStores(t *testing.T, got, want *Store) {
	t.Helper()
	comparePackedMaps(t, "HubPartial", maps.Collect(got.HubPartial.All()), maps.Collect(want.HubPartial.All()))
	comparePackedMaps(t, "Skeleton", maps.Collect(got.Skeleton.All()), maps.Collect(want.Skeleton.All()))
	comparePackedMaps(t, "LeafPPV", maps.Collect(got.LeafPPV.All()), maps.Collect(want.LeafPPV.All()))
}

// TestKernelEquivalenceStore: the full HGPA pre-computation — hub
// partials, skeletons, leaf PPVs — matches the per-vector reference.
// Under DanglingRestart, which the kernels do not implement, the build
// fails instead.
func TestKernelEquivalenceStore(t *testing.T) {
	for _, dangling := range []ppr.DanglingPolicy{ppr.DanglingAbsorb, ppr.DanglingRestart} {
		p := ppr.Params{Alpha: 0.15, Eps: 1e-5, Dangling: dangling}
		s, err := BuildHGPA(kernelTestGraph(t, 7), hierarchy.Options{Seed: 3}, p, 3)
		if dangling == ppr.DanglingRestart {
			if !errors.Is(err, ppr.ErrUnsupportedDangling) {
				t.Fatalf("DanglingRestart build: err = %v, want ErrUnsupportedDangling", err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		compareStores(t, s, referenceStore(t, s.H, p))
	}
}

// TestKernelEquivalenceAfterUpdates: a store maintained through a
// sequence of edge-delta batches matches the per-vector reference on
// its final tree — section maps and query results alike.
func TestKernelEquivalenceAfterUpdates(t *testing.T) {
	p := ppr.Params{Alpha: 0.15, Eps: 1e-6}
	s, err := BuildHGPA(kernelTestGraph(t, 11), hierarchy.Options{Seed: 5}, p, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	n := int32(s.H.G.NumNodes())
	for batch := 0; batch < 6; batch++ {
		var d graph.Delta
		for i := 0; i < 10; i++ {
			u, v := rng.Int31n(n), rng.Int31n(n)
			if u == v {
				continue
			}
			if rng.Intn(2) == 0 {
				d.Insert = append(d.Insert, [2]int32{u, v})
			} else {
				d.Delete = append(d.Delete, [2]int32{u, v})
			}
		}
		if s, _, err = s.ApplyUpdates(d, 3); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
	}
	ref := referenceStore(t, s.H, p)
	compareStores(t, s, ref)
	for _, u := range sampleQueries(s) {
		want, err := ref.Query(u)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Query(u)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: %d entries, want %d", u, len(got), len(want))
		}
		for id, x := range want {
			if math.Abs(got.Get(id)-x) > kernelTol {
				t.Fatalf("query %d: entry %d = %v, want %v", u, id, got.Get(id), x)
			}
		}
	}
}

// TestPrecomputeInfoKernelStats: the info block records a plausible
// work tally (some pushes), and the deprecated DenseFallbacks reads 0.
func TestPrecomputeInfoKernelStats(t *testing.T) {
	p := ppr.Params{Alpha: 0.15, Eps: 1e-4}
	h, err := hierarchy.Build(kernelTestGraph(t, 17), hierarchy.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s, info, err := PrecomputeWithInfo(h, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2*s.HubPartial.Len() + s.LeafPPV.Len(); info.Vectors != want {
		t.Fatalf("info.Vectors = %d, want %d", info.Vectors, want)
	}
	if info.Pushes <= 0 {
		t.Fatalf("info.Pushes = %d, want > 0", info.Pushes)
	}
	if info.DenseFallbacks != 0 {
		t.Fatalf("info.DenseFallbacks = %d, want 0", info.DenseFallbacks)
	}
}

// TestDanglingRestartRejected: the kernels never read Params.Dangling,
// so an HGPA store built with DanglingRestart answered for the absorb
// policy while its header recorded restart — far from power iteration
// under the store's own params on a graph with every 5th node dangling.
// HGPA and PPV-JW pre-computation now refuse the policy.
func TestDanglingRestartRejected(t *testing.T) {
	base := kernelTestGraph(t, 7)
	b := graph.NewBuilder(base.NumNodes())
	for u := int32(0); u < int32(base.NumNodes()); u++ {
		if u%5 != 0 {
			for _, v := range base.Out(u) {
				b.AddEdge(u, v)
			}
		}
	}
	g := b.Build()
	p := ppr.Params{Alpha: 0.15, Eps: 1e-9, Dangling: ppr.DanglingRestart}
	s, err := BuildHGPA(g, hierarchy.Options{Seed: 3}, p, 2)
	if err == nil {
		worst := 0.0
		for u := int32(0); u < 40; u++ {
			got, err := s.Query(u)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ppr.PowerIteration(g, u, s.Params)
			if err != nil {
				t.Fatal(err)
			}
			worst = max(worst, sparse.LInfDistance(got, want))
		}
		t.Fatalf("built a DanglingRestart store whose answers are up to %.3g from power iteration", worst)
	}
	if !errors.Is(err, ppr.ErrUnsupportedDangling) {
		t.Fatalf("BuildHGPA: err = %v, want ErrUnsupportedDangling", err)
	}
	if _, err := PrecomputeJW(g, 10, p, 2); !errors.Is(err, ppr.ErrUnsupportedDangling) {
		t.Fatalf("PrecomputeJW: err = %v, want ErrUnsupportedDangling", err)
	}
}

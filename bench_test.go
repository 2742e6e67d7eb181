package exactppr

// One testing.B benchmark per table/figure of the paper's evaluation.
// Fixtures are built once per process at reduced scale so the whole
// suite stays laptop-friendly; use cmd/pprexp for the full experiment
// tables (pprexp -list names them).

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"exactppr/internal/bsp"
	"exactppr/internal/cluster"
	"exactppr/internal/core"
	"exactppr/internal/fastppv"
	"exactppr/internal/gen"
	"exactppr/internal/graph"
	"exactppr/internal/hierarchy"
	"exactppr/internal/montecarlo"
	"exactppr/internal/ppr"
	"exactppr/internal/workload"
)

const benchScale = 0.25

var benchParams = ppr.Params{Alpha: 0.15, Eps: 1e-4}

type fixture struct {
	g     *graph.Graph
	store *core.Store
	gpa   *core.Store
}

var (
	fixOnce sync.Once
	fix     fixture
)

func benchFixture(b *testing.B) *fixture {
	b.Helper()
	fixOnce.Do(func() {
		g, err := gen.Dataset("web", benchScale, 1)
		if err != nil {
			panic(err)
		}
		store, err := core.BuildHGPA(g, hierarchy.Options{Seed: 1}, benchParams, 0)
		if err != nil {
			panic(err)
		}
		gpa, err := core.BuildGPA(g, 6, benchParams, 0, 1)
		if err != nil {
			panic(err)
		}
		fix = fixture{g: g, store: store, gpa: gpa}
	})
	return &fix
}

func benchQueries(g *graph.Graph, n int) []int32 { return workload.Queries(g, n, 99) }

// BenchmarkHierarchyBuild regenerates Tables 2–5: hierarchical
// partitioning with per-level hub selection. The seed is fixed so every
// iteration builds the same tree: ns/op does not depend on b.N and the
// hubs metric describes every iteration, not only the last.
func BenchmarkHierarchyBuild(b *testing.B) {
	f := benchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := hierarchy.Build(f.g, hierarchy.Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(h.TotalHubs()), "hubs")
	}
}

// BenchmarkGPAQuery and BenchmarkHGPAQuery are Figure 9's runtime bars.
func BenchmarkGPAQuery(b *testing.B) {
	f := benchFixture(b)
	qs := benchQueries(f.g, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.gpa.Query(qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHGPAQuery(b *testing.B) {
	f := benchFixture(b)
	qs := benchQueries(f.g, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.store.Query(qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuery is the headline single-node serving fold (HGPA
// Store.Query), tracked with allocations by the CI bench job; the
// packed/columnar variants measure what the serving layer actually
// ships (a sorted share for the wire, a top-k page for the gateway).
func BenchmarkQuery(b *testing.B) {
	f := benchFixture(b)
	qs := benchQueries(f.g, 16)
	b.Run("vector", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := f.store.Query(qs[i%len(qs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("packed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := f.store.QueryPacked(qs[i%len(qs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("topk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := f.store.QueryTopK(qs[i%len(qs)], 10); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHGPAQueryMachines is Figure 10: distributed query runtime as
// the machine count grows (per-machine work shrinks).
func BenchmarkHGPAQueryMachines(b *testing.B) {
	f := benchFixture(b)
	for _, n := range []int{2, 6, 10} {
		b.Run(fmt.Sprintf("machines=%d", n), func(b *testing.B) {
			coord, err := cluster.NewLocalCluster(f.store, n)
			if err != nil {
				b.Fatal(err)
			}
			qs := benchQueries(f.g, 16)
			b.ResetTimer()
			var bytes int64
			for i := 0; i < b.N; i++ {
				stats, err := coord.QuerySequential(qs[i%len(qs)])
				if err != nil {
					b.Fatal(err)
				}
				bytes += stats.BytesReceived
			}
			// Figure 13's communication metric rides along.
			b.ReportMetric(float64(bytes)/float64(b.N)/1024, "KB/query")
		})
	}
}

// offlineFixture is the large-partition fixture for the offline-cost
// benchmarks (BenchmarkPrecompute, BenchmarkApplyUpdates): the paper's
// GPA deployment (§3, Figure 12) — m machine-sized partitions of a
// larger web graph, one hub set. This is the regime the kernel choice
// is about: every vector runs on an n/m-node subgraph, so
// graph-proportional bookkeeping (O(|V|) clears and drains, a mutex
// acquisition per reverse pop) dwarfs the few hundred residual pushes
// a vector actually needs. The deep edge-free hierarchy of the shared
// fixture hides that cost behind tiny leaf subgraphs; serving
// deployments partition by machine count, not to exhaustion. ε is
// relaxed to 1e-3 as the paper does on its larger graphs (§6; cf. the
// 1e-2 used for PLD_full in BenchmarkHGPAManyProcs).
type offlineFix struct {
	g *graph.Graph
	h *hierarchy.Hierarchy
}

var (
	offlineOnce   sync.Once
	offline       offlineFix
	offlineParams = ppr.Params{Alpha: 0.15, Eps: 1e-3}
)

const offlineFanout = 4

func offlineFixture(b *testing.B) *offlineFix {
	b.Helper()
	offlineOnce.Do(func() {
		g, err := gen.Dataset("web", 3, 1)
		if err != nil {
			panic(err)
		}
		h, err := hierarchy.Build(g, hierarchy.Options{Seed: 1, Fanout: offlineFanout, MaxLevels: 1})
		if err != nil {
			panic(err)
		}
		offline = offlineFix{g: g, h: h}
	})
	return &offline
}

// reportKernelMetrics attaches the kernel cost model to a bench:
// pushes/vector (residual pops actually performed — the
// work-proportional unit) and densefrac (the fraction of vectors whose
// frontier spilled past a quarter of the subgraph, so that they
// finished as a dense sweep).
func reportKernelMetrics(b *testing.B, pushes, vectors, fallbacks int64) {
	if vectors > 0 {
		b.ReportMetric(float64(pushes)/float64(vectors), "pushes/vector")
		b.ReportMetric(float64(fallbacks)/float64(vectors), "densefrac")
	}
}

// BenchmarkPrecompute is Figure 12's offline cost (per full build).
// deep tracks the shared fixture's edge-free hierarchy (the historical
// number); gpa runs the machine-sized-partition fixture, where each
// partition is an n/m-node subgraph and the kernels' work-proportional
// bookkeeping decides the cost.
func BenchmarkPrecompute(b *testing.B) {
	b.Run("deep", func(b *testing.B) {
		f := benchFixture(b)
		h, err := hierarchy.Build(f.g, hierarchy.Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.Precompute(h, benchParams, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("gpa", func(b *testing.B) {
		f := offlineFixture(b)
		var pushes, vectors, fallbacks int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, info, err := core.PrecomputeWithInfo(f.h, offlineParams, 0)
			if err != nil {
				b.Fatal(err)
			}
			pushes += info.Pushes
			vectors += int64(info.Vectors)
			fallbacks += info.DenseFallbacks
		}
		reportKernelMetrics(b, pushes, vectors, fallbacks)
	})
}

// BenchmarkHGPALevels is Figures 14–16: query cost across hierarchy
// depths (space/offline are printed as metrics).
func BenchmarkHGPALevels(b *testing.B) {
	f := benchFixture(b)
	for _, levels := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("levels=%d", levels), func(b *testing.B) {
			store, err := core.BuildHGPA(f.g, hierarchy.Options{MaxLevels: levels, Seed: 1}, benchParams, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(store.SpaceBytes())/(1<<20), "MB")
			qs := benchQueries(f.g, 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := store.Query(qs[i%len(qs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHGPAFanout is Figure 17: multi-way partitioning.
func BenchmarkHGPAFanout(b *testing.B) {
	f := benchFixture(b)
	for _, fanout := range []int{2, 8} {
		b.Run(fmt.Sprintf("fanout=%d", fanout), func(b *testing.B) {
			store, err := core.BuildHGPA(f.g, hierarchy.Options{Fanout: fanout, Seed: 1}, benchParams, 0)
			if err != nil {
				b.Fatal(err)
			}
			qs := benchQueries(f.g, 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := store.Query(qs[i%len(qs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHGPATolerance is Figure 18: the ε sweep.
func BenchmarkHGPATolerance(b *testing.B) {
	f := benchFixture(b)
	for _, eps := range []float64{1e-3, 1e-5} {
		b.Run(fmt.Sprintf("eps=%.0e", eps), func(b *testing.B) {
			p := benchParams
			p.Eps = eps
			store, err := core.BuildHGPA(f.g, hierarchy.Options{Seed: 1}, p, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(store.SpaceBytes())/(1<<20), "MB")
			qs := benchQueries(f.g, 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := store.Query(qs[i%len(qs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHGPAScaleMeetup is Figure 20 (and Table 6's graphs): query
// runtime as the graph grows.
func BenchmarkHGPAScaleMeetup(b *testing.B) {
	for i, spec := range gen.MeetupSizes {
		if i%2 == 1 {
			continue // M1, M3, M5 keep the suite short
		}
		b.Run(spec.ID, func(b *testing.B) {
			g, err := gen.MeetupLike(i, 1)
			if err != nil {
				b.Fatal(err)
			}
			store, err := core.BuildHGPA(g, hierarchy.Options{Seed: 1}, benchParams, 0)
			if err != nil {
				b.Fatal(err)
			}
			qs := benchQueries(g, 8)
			b.ResetTimer()
			for j := 0; j < b.N; j++ {
				if _, err := store.Query(qs[j%len(qs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPregelPPV and BenchmarkBlogelPPV are Figures 21–22 and 27:
// the BSP baselines (network bytes reported as a metric).
func benchBSP(b *testing.B, mode bsp.Mode) {
	f := benchFixture(b)
	e, err := bsp.NewEngine(f.g, mode, 6)
	if err != nil {
		b.Fatal(err)
	}
	qs := benchQueries(f.g, 8)
	b.ResetTimer()
	var bytes int64
	var steps int
	for i := 0; i < b.N; i++ {
		stats, err := e.RunPPV(qs[i%len(qs)], benchParams)
		if err != nil {
			b.Fatal(err)
		}
		bytes += stats.NetworkBytes
		steps += stats.Supersteps
	}
	b.ReportMetric(float64(bytes)/float64(b.N)/1024, "KB/query")
	b.ReportMetric(float64(steps)/float64(b.N), "supersteps")
}

func BenchmarkPregelPPV(b *testing.B) { benchBSP(b, bsp.VertexCentric) }
func BenchmarkBlogelPPV(b *testing.B) { benchBSP(b, bsp.BlockCentric) }

// BenchmarkPowerIteration and BenchmarkHGPACentral are Figure 23: the
// centralized comparison.
func BenchmarkPowerIteration(b *testing.B) {
	f := benchFixture(b)
	qs := benchQueries(f.g, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ppr.PowerIteration(f.g, qs[i%len(qs)], benchParams); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHGPACentral(b *testing.B) {
	f := benchFixture(b)
	qs := benchQueries(f.g, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.store.Query(qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFastPPV is Figures 24–26's comparator, and BenchmarkHGPAad the
// adapted method.
func BenchmarkFastPPV(b *testing.B) {
	f := benchFixture(b)
	ix, err := fastppv.BuildIndex(f.g, max(f.g.NumNodes()/200, 4), benchParams, 0)
	if err != nil {
		b.Fatal(err)
	}
	qs := benchQueries(f.g, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Query(qs[i%len(qs)], 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHGPAad(b *testing.B) {
	f := benchFixture(b)
	ad := f.store.Clone()
	ad.Truncate(1e-4)
	qs := benchQueries(f.g, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ad.Query(qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHGPAManyProcs is Figure 28: the large-graph analogue over a
// large processor count.
func BenchmarkHGPAManyProcs(b *testing.B) {
	g, err := gen.Dataset("pld_full", 0.1, 1)
	if err != nil {
		b.Fatal(err)
	}
	p := benchParams
	p.Eps = 1e-2 // the paper relaxes ε on PLD_full
	store, err := core.BuildHGPA(g, hierarchy.Options{Seed: 1}, p, 0)
	if err != nil {
		b.Fatal(err)
	}
	coord, err := cluster.NewLocalCluster(store, 64)
	if err != nil {
		b.Fatal(err)
	}
	qs := benchQueries(g, 8)
	b.ResetTimer()
	var bytes int64
	for i := 0; i < b.N; i++ {
		stats, err := coord.QuerySequential(qs[i%len(qs)])
		if err != nil {
			b.Fatal(err)
		}
		bytes += stats.BytesReceived
	}
	b.ReportMetric(float64(bytes)/float64(b.N)/1024, "KB/query")
}

// BenchmarkSkeletonAblation contrasts §5.2's memory-bounded reverse
// iteration (local push) with the literal dense Jacobi iteration of
// Theorem 6 — the "improved skeleton computation" claim of §5.2.
func BenchmarkSkeletonAblation(b *testing.B) {
	f := benchFixture(b)
	h := int32(7)
	b.Run("reverse-push", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ppr.SkeletonVector(f.g, h, benchParams); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dense-jacobi", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ppr.SkeletonForHubDense(f.g, h, benchParams); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchStorePath saves the shared fixture's store once per process for
// the disk-serving benchmarks; TestMain removes the directory (a plain
// b.TempDir would be torn down after the first sub-benchmark).
var (
	benchStoreOnce sync.Once
	benchStoreDir  string
	benchStoreFile string
)

func TestMain(m *testing.M) {
	code := m.Run()
	if benchStoreDir != "" {
		os.RemoveAll(benchStoreDir)
	}
	os.Exit(code)
}

func benchStorePath(b *testing.B) string {
	b.Helper()
	f := benchFixture(b)
	benchStoreOnce.Do(func() {
		dir, err := os.MkdirTemp("", "exactppr-bench")
		if err != nil {
			panic(err)
		}
		benchStoreDir = dir
		benchStoreFile = dir + "/bench.store"
		if err := core.SaveFile(benchStoreFile, f.store); err != nil {
			panic(err)
		}
	})
	return benchStoreFile
}

// BenchmarkLoadShard compares what a worker allocates to load its
// slice of a 2-way split (core.LoadShard) against a whole-store load of
// the same file. Both rebuild the graph and tree; the shard skips the
// other machine's payloads. vectorMB is the encoded size of the vectors
// the loaded store holds.
func BenchmarkLoadShard(b *testing.B) {
	path := benchStorePath(b)
	for _, bc := range []struct {
		name string
		load func() (*core.Store, error)
	}{
		{"whole", func() (*core.Store, error) { return core.LoadFile(path) }},
		{"shard=0of2", func() (*core.Store, error) { return core.LoadShard(path, 0, 2) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var s *core.Store
			for i := 0; i < b.N; i++ {
				var err error
				if s, err = bc.load(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(s.SpaceBytes())/(1<<20), "vectorMB")
		})
	}
}

// BenchmarkDiskStoreQuery measures the disk-resident query path (§5.2's
// "vectors larger than main memory" deployment) against the in-memory
// BenchmarkHGPACentral: one goroutine folding views over the mapped
// store file, with the page cache warm.
func BenchmarkDiskStoreQuery(b *testing.B) {
	f := benchFixture(b)
	ds, err := core.OpenDiskStore(benchStorePath(b))
	if err != nil {
		b.Fatal(err)
	}
	defer ds.Close()
	qs := benchQueries(f.g, 16)
	for _, u := range qs {
		if _, err := ds.Query(u); err != nil { // fault the pages in
			b.Fatal(err)
		}
	}
	base := ds.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ds.Query(qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(ds.Stats().Reads-base.Reads)/float64(b.N), "reads/query")
}

// BenchmarkDiskServeConcurrent is the mapped disk store under parallel
// serving traffic spread over the node set.
func BenchmarkDiskServeConcurrent(b *testing.B) {
	f := benchFixture(b)
	ds, err := core.OpenDiskStore(benchStorePath(b))
	if err != nil {
		b.Fatal(err)
	}
	defer ds.Close()
	qs := benchQueries(f.g, 16)
	base := ds.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			if _, err := ds.QueryPacked(qs[i%len(qs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(ds.Stats().Reads-base.Reads)/float64(b.N), "reads/query")
}

// BenchmarkMonteCarlo measures the random-walk estimator [5] at a walk
// budget whose accuracy is comparable to ε=1e-2 — the approximate
// distributed alternative HGPA is exact against.
func BenchmarkMonteCarlo(b *testing.B) {
	f := benchFixture(b)
	e, err := montecarlo.NewEngine(f.g)
	if err != nil {
		b.Fatal(err)
	}
	qs := benchQueries(f.g, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Estimate(qs[i%len(qs)], 10000, benchParams, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApplyUpdates measures incremental update throughput: each
// iteration applies one edge-insert batch and then the reverting delete
// batch, so the store ends each iteration where it started (after a
// one-time warm-up that settles any hub promotions). Dedicated fixtures
// keep the mutation away from the shared read-only one: deep is the
// historical edge-free hierarchy, gpa re-runs the
// machine-sized-partition deployment (see offlineFixture) — a dirty
// partition there is an n/m-node subgraph, the workload the push
// kernels exist for. The custom metric reports how
// many store vectors one batch recomputes — the quantity a full
// rebuild would multiply to the whole store.
func BenchmarkApplyUpdates(b *testing.B) {
	b.Run("deep", func(b *testing.B) {
		g, err := gen.Dataset("web", benchScale, 5)
		if err != nil {
			b.Fatal(err)
		}
		store, err := core.BuildHGPA(g, hierarchy.Options{Seed: 1}, benchParams, 0)
		if err != nil {
			b.Fatal(err)
		}
		benchApplyUpdates(b, g, store)
	})
	b.Run("gpa", func(b *testing.B) {
		// A fresh graph: the updates mutate it in place.
		g, err := gen.Dataset("web", 2, 5)
		if err != nil {
			b.Fatal(err)
		}
		store, err := core.BuildHGPA(g, hierarchy.Options{Seed: 1, Fanout: offlineFanout, MaxLevels: 1}, offlineParams, 0)
		if err != nil {
			b.Fatal(err)
		}
		benchApplyUpdates(b, g, store)
	})
}

func benchApplyUpdates(b *testing.B, g *graph.Graph, store *core.Store) {
	live := core.NewLiveStore(store)
	// A fixed batch of edges absent from the generated graph.
	var ins [][2]int32
	n := int32(g.NumNodes())
	for u := int32(0); len(ins) < 8 && u < n; u += 13 {
		v := (u + n/2) % n
		if u != v && !g.HasEdge(u, v) {
			ins = append(ins, [2]int32{u, v})
		}
	}
	warm := func() (recomputed int, pushes, fallbacks int64, err error) {
		a, err := live.ApplyUpdates(graph.Delta{Insert: ins}, 0)
		if err != nil {
			return 0, 0, 0, err
		}
		d, err := live.ApplyUpdates(graph.Delta{Delete: ins}, 0)
		if err != nil {
			return 0, 0, 0, err
		}
		return a.Recomputed + d.Recomputed, a.Pushes + d.Pushes, a.DenseFallbacks + d.DenseFallbacks, nil
	}
	if _, _, _, err := warm(); err != nil { // settle promotions before timing
		b.Fatal(err)
	}
	b.ResetTimer()
	var recomputed, pushes, fallbacks int64
	for i := 0; i < b.N; i++ {
		r, p, f, err := warm()
		if err != nil {
			b.Fatal(err)
		}
		recomputed += int64(r)
		pushes += p
		fallbacks += f
	}
	b.ReportMetric(float64(recomputed)/float64(2*b.N), "vectors/batch")
	b.ReportMetric(float64(live.Store().Stats().Hubs*2+live.Store().Stats().Leaves), "vectors/store")
	reportKernelMetrics(b, pushes, recomputed, fallbacks)
}

// BenchmarkQuerySet measures preference-set queries (PPV linearity).
func BenchmarkQuerySet(b *testing.B) {
	f := benchFixture(b)
	pref := core.Preference{Nodes: benchQueries(f.g, 3)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.store.QuerySet(pref); err != nil {
			b.Fatal(err)
		}
	}
}

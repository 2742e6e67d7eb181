// Updates: keep serving exact PPV queries while the graph changes.
//
// The demo builds an HGPA store over a community graph, wraps it in a
// LiveStore, and streams random edge-delta batches at it. After every
// batch it (a) reports how much of the store the dirty-partition
// recompute actually touched, and (b) cross-checks a few queries
// against a from-scratch rebuild of the updated graph — the
// incremental snapshot and the rebuild must agree to ~1e-9.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"exactppr/internal/core"
	"exactppr/internal/gen"
	"exactppr/internal/graph"
	"exactppr/internal/hierarchy"
	"exactppr/internal/ppr"
	"exactppr/internal/sparse"
)

func main() {
	g, err := gen.Community(gen.Config{
		Nodes: 400, AvgOutDegree: 4, Communities: 4,
		InterFrac: 0.05, MinOutDegree: 1, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	params := ppr.Params{Alpha: 0.15, Eps: 1e-12}
	opts := hierarchy.Options{Seed: 3}
	store, err := core.BuildHGPA(g, opts, params, 0)
	if err != nil {
		log.Fatal(err)
	}
	live := core.NewLiveStore(store)
	fmt.Printf("built store: %d nodes, %d edges, %d hubs, %d leaf vectors\n",
		g.NumNodes(), g.NumEdges(), store.HubCount(), store.LeafCount())

	rng := rand.New(rand.NewSource(42))
	totalRecomputed, totalFull := 0, 0
	for batch := 1; batch <= 8; batch++ {
		d := randomDelta(rng, live.Store().H.G, 4)
		info, err := live.ApplyUpdates(d, 0)
		if err != nil {
			log.Fatal(err)
		}
		totalRecomputed += info.Recomputed
		totalFull += info.StoreVectors
		fmt.Printf("batch %d: +%d/-%d edges, %d dirty partitions, %d promoted, recomputed %d of %d vectors (%.1f%%) in %v\n",
			batch, info.Inserted, info.Deleted, info.DirtyNodes, info.Promoted,
			info.Recomputed, info.StoreVectors,
			100*float64(info.Recomputed)/float64(info.StoreVectors), info.Wall.Round(1000))

		// Equivalence check: the incrementally maintained store answers
		// exactly like a from-scratch build of the updated graph.
		snap := live.Store()
		fresh, err := core.BuildHGPA(rebuild(snap.H.G), opts, params, 0)
		if err != nil {
			log.Fatal(err)
		}
		worst := 0.0
		for _, u := range []int32{1, 99, 250, 399} {
			a, err := snap.Query(u)
			if err != nil {
				log.Fatal(err)
			}
			b, err := fresh.Query(u)
			if err != nil {
				log.Fatal(err)
			}
			if d := sparse.LInfDistance(a, b); d > worst {
				worst = d
			}
		}
		if worst > 1e-9 {
			log.Fatalf("batch %d: incremental store diverged from rebuild: L∞ = %g", batch, worst)
		}
		fmt.Printf("         equivalence vs rebuild: worst L∞ = %.2g ✓\n", worst)
	}
	fmt.Printf("\nacross all batches: recomputed %d vectors where rebuilds would have computed %d (%.1fx saving)\n",
		totalRecomputed, totalFull, float64(totalFull)/float64(totalRecomputed))
}

func randomDelta(rng *rand.Rand, g *graph.Graph, ops int) graph.Delta {
	var d graph.Delta
	n := int32(g.NumNodes())
	for i := 0; i < ops; i++ {
		u, v := rng.Int31n(n), rng.Int31n(n)
		if u == v {
			continue
		}
		if g.HasEdge(u, v) {
			d.Delete = append(d.Delete, [2]int32{u, v})
		} else {
			d.Insert = append(d.Insert, [2]int32{u, v})
		}
	}
	return d
}

func rebuild(g *graph.Graph) *graph.Graph {
	b := graph.NewBuilder(g.NumNodes())
	for u := int32(0); u < int32(g.NumNodes()); u++ {
		for _, v := range g.Out(u) {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

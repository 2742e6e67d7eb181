// Quickstart: build a small graph, pre-compute the HGPA store, and answer
// an exact PPV query — the 60-second tour of the public API.
package main

import (
	"fmt"
	"log"

	"exactppr"
)

func main() {
	// A toy collaboration graph: two tight communities bridged by node 4.
	b := exactppr.NewGraphBuilder(9)
	edges := [][2]int32{
		{0, 1}, {1, 2}, {2, 0}, {1, 3}, {3, 0}, // community A
		{3, 4}, {4, 5}, // the bridge
		{5, 6}, {6, 7}, {7, 5}, {6, 8}, {8, 7}, // community B
		{2, 4}, {4, 3}, // back-edges
	}
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	g := b.Build()

	// Pre-compute once (α = 0.15, ε = 1e-4 — the paper's defaults).
	store, err := exactppr.BuildHGPA(g, exactppr.HierarchyOptions{Seed: 1}, exactppr.DefaultParams(), 0)
	if err != nil {
		log.Fatal(err)
	}

	// Query any node, exactly.
	const query = 0
	ppv, err := store.Query(query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Personalized PageRank of node %d:\n", query)
	for _, e := range ppv.TopK(5) {
		fmt.Printf("  node %d: %.4f\n", e.ID, e.Score)
	}

	// Cross-check against power iteration — same numbers, slower path.
	oracle, err := exactppr.PowerIteration(g, query, exactppr.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}
	top := oracle.TopK(1)[0].ID
	if top != ppv.TopK(1)[0].ID {
		log.Fatalf("power iteration's top node %d disagrees with the exact construction's %d", top, ppv.TopK(1)[0].ID)
	}
	fmt.Printf("power-iteration check: top node %d (exact construction agrees)\n", top)
}

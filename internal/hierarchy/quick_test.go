package hierarchy

import (
	"math/rand"
	"testing"

	"exactppr/internal/gen"
)

// TestQuickHierarchyInvariants fuzzes Build across graph shapes, fanouts,
// and level caps, running the full Validate() suite each time (children
// partition members∖hubs, hub sets separate children, indexes agree).
func TestQuickHierarchyInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 12; trial++ {
		n := 30 + rng.Intn(400)
		g, err := gen.Community(gen.Config{
			Nodes:        n,
			AvgOutDegree: 1 + rng.Float64()*5,
			Communities:  1 + rng.Intn(6),
			InterFrac:    rng.Float64() * 0.25,
			DegreeSkew:   []float64{0, 1.6}[rng.Intn(2)],
			Seed:         int64(trial + 300),
		})
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{
			Fanout:    2 + rng.Intn(3),
			MaxLevels: rng.Intn(7),
			MinSize:   4 + rng.Intn(30),
			Seed:      int64(trial),
		}
		h, err := Build(g, opts)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := h.Validate(); err != nil {
			t.Fatalf("trial %d (%+v): %v", trial, opts, err)
		}
		// Path/home coherence for a sample of nodes.
		for i := 0; i < 10; i++ {
			u := int32(rng.Intn(n))
			path := h.Path(u)
			if len(path) == 0 || path[0] != h.Root {
				t.Fatalf("trial %d: bad path for %d", trial, u)
			}
			if h.IsHub(u) != (h.HubLevel(u) >= 0) {
				t.Fatalf("trial %d: hub flags disagree for %d", trial, u)
			}
		}
		// Hub + leaf membership counts account for every node exactly once.
		assigned := 0
		for _, node := range h.Nodes() {
			assigned += len(node.Hubs)
			if node.IsLeaf() {
				for _, m := range node.Members() {
					if !h.IsHub(m) {
						assigned++
					}
				}
			}
		}
		if assigned != n {
			t.Fatalf("trial %d: %d nodes assigned of %d", trial, assigned, n)
		}
	}
}

// Command pprprecomp runs the full HGPA pre-computation for a dataset and
// writes the resulting vector store to disk for pprquery / pprserve.
//
//	pprprecomp -dataset web -scale 0.5 -o web.store
//	pprprecomp -dataset file:web.txt -eps 1e-5 -fanout 2 -o web.store
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"exactppr/internal/core"
	"exactppr/internal/hierarchy"
	"exactppr/internal/ppr"
	"exactppr/internal/workload"
)

func main() {
	var (
		dataset   = flag.String("dataset", "email", "preset name or file:PATH")
		scale     = flag.Float64("scale", 0.5, "node-count multiplier for presets")
		seed      = flag.Int64("seed", 1, "seed")
		alpha     = flag.Float64("alpha", 0.15, "teleport probability")
		eps       = flag.Float64("eps", 1e-4, "tolerance")
		fanout    = flag.Int("fanout", 2, "parts per split")
		maxLevels = flag.Int("maxlevels", 0, "level cap (0 = until edge-free)")
		workers   = flag.Int("workers", 0, "parallel workers (0 = all cores)")
		out       = flag.String("o", "ppr.store", "output store path")
	)
	flag.Parse()

	ds, err := workload.Load(*dataset, *scale, *seed)
	if err != nil {
		fatal(err)
	}
	h, err := hierarchy.Build(ds.G, hierarchy.Options{
		Fanout: *fanout, MaxLevels: *maxLevels, Seed: *seed,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "%s: %d nodes, %d edges, %d levels, %d hubs\n",
		ds.Name, ds.G.NumNodes(), ds.G.NumEdges(), h.Depth(), h.TotalHubs())

	start := time.Now()
	store, info, err := core.PrecomputeWithInfo(h, ppr.Params{Alpha: *alpha, Eps: *eps}, *workers)
	if err != nil {
		fatal(err)
	}
	st := store.Stats()
	fmt.Fprintf(os.Stderr, "precompute: %d tasks in %v (Σ task time %v)\n",
		info.Tasks, time.Since(start).Round(time.Millisecond), info.TotalTaskTime.Round(time.Millisecond))
	fmt.Fprintf(os.Stderr, "kernels: %.0f pushes/vector\n",
		float64(info.Pushes)/float64(max(info.Vectors, 1)))
	fmt.Fprintf(os.Stderr, "store: %d hub partials, %d leaf vectors, %.2f MB\n",
		st.Hubs, st.Leaves, float64(st.Bytes)/(1<<20))

	if err := core.SaveFile(*out, store); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pprprecomp:", err)
	os.Exit(1)
}

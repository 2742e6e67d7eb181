// Command pprexp runs the paper-reproduction experiments: one runner per
// table and figure of the evaluation section (pprexp -list prints the
// experiment ids).
//
//	pprexp -list
//	pprexp -run fig9
//	pprexp -run all -scale 0.3 -queries 10
package main

import (
	"flag"
	"fmt"
	"os"

	"exactppr/internal/experiments"
)

func main() {
	var (
		run      = flag.String("run", "", "experiment id (or 'all')")
		list     = flag.Bool("list", false, "list experiment ids")
		scale    = flag.Float64("scale", 0.5, "dataset scale")
		seed     = flag.Int64("seed", 1, "seed")
		machines = flag.Int("machines", 6, "default machine count")
		queries  = flag.Int("queries", 20, "query sample size per measurement")
		alpha    = flag.Float64("alpha", 0.15, "teleport probability")
		eps      = flag.Float64("eps", 1e-4, "tolerance")
		workers  = flag.Int("workers", 0, "precompute workers (0 = all cores)")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.List() {
			fmt.Printf("%-8s %s\n", id, experiments.About(id))
		}
		return
	}
	if *run == "" {
		fmt.Fprintln(os.Stderr, "pprexp: -run <id> or -list required")
		os.Exit(2)
	}
	cfg := experiments.Config{
		Scale: *scale, Seed: *seed, Machines: *machines,
		Queries: *queries, Alpha: *alpha, Eps: *eps, Workers: *workers,
	}
	ids := []string{*run}
	if *run == "all" {
		ids = experiments.List()
	}
	for _, id := range ids {
		if err := experiments.RunAndPrint(id, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "pprexp: %s: %v\n", id, err)
			os.Exit(1)
		}
	}
}

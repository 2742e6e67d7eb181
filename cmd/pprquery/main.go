// Command pprquery answers PPV queries against a pre-computed store. It
// memory-maps the store file (core.OpenDiskStore) and folds vectors
// zero-copy out of the page cache, in every mode.
//
//	pprquery -store web.store -node 42 -topk 10
//	pprquery -store web.store -node 42 -machines 6      # simulate a cluster
//	pprquery -store web.store -node 42 -verify          # check vs power iteration
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"exactppr/internal/cluster"
	"exactppr/internal/core"
	"exactppr/internal/ppr"
	"exactppr/internal/sparse"
)

func main() {
	var (
		storePath = flag.String("store", "ppr.store", "store file from pprprecomp")
		node      = flag.Int("node", 0, "query node id")
		topk      = flag.Int("topk", 10, "entries to print")
		machines  = flag.Int("machines", 0, "simulate an n-machine cluster (0 = centralized)")
		verify    = flag.Bool("verify", false, "compare against power iteration")
	)
	flag.Parse()

	ds, err := core.OpenDiskStore(*storePath)
	if err != nil {
		fatal(err)
	}
	defer ds.Close()
	q := int32(*node)
	var ppv sparse.Vector
	start := time.Now()
	if *machines > 0 {
		coord, err := cluster.NewDiskLocalCluster(ds, *machines)
		if err != nil {
			fatal(err)
		}
		stats, err := coord.Query(q)
		if err != nil {
			fatal(err)
		}
		ppv = stats.Result.Unpack()
		fmt.Printf("distributed over %d machines: %v wall, %.1f KB received, slowest machine %v\n",
			*machines, stats.Wall.Round(time.Microsecond),
			float64(stats.BytesReceived)/1024, stats.MaxMachineTime().Round(time.Microsecond))
	} else {
		ppv, err = ds.Query(q)
		if err != nil {
			fatal(err)
		}
		st := ds.Stats()
		mode := "in-memory copy"
		if st.Mmap {
			mode = "mmap"
		}
		fmt.Printf("centralized query (%s): %v — %d reads\n",
			mode, time.Since(start).Round(time.Microsecond), st.Reads)
	}

	printTop(ppv, q, *topk)

	if *verify {
		// The open store keeps no graph; this parses it from the file.
		g, err := ds.Graph()
		if err != nil {
			fatal(err)
		}
		oracle, err := ppr.PowerIteration(g, q, ds.Params)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("vs power iteration: avg-L1 %.3e, L∞ %.3e\n",
			sparse.L1Distance(ppv, oracle)/float64(g.NumNodes()),
			sparse.LInfDistance(ppv, oracle))
	}
}

func printTop(ppv sparse.Vector, q int32, topk int) {
	fmt.Printf("PPV of node %d (%d non-zero entries, mass %.4f):\n", q, ppv.Len(), ppv.Sum())
	for i, e := range ppv.TopK(topk) {
		fmt.Printf("%3d. node %-8d %.6f\n", i+1, e.ID, e.Score)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pprquery:", err)
	os.Exit(1)
}

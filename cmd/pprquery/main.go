// Command pprquery answers PPV queries against a pre-computed store.
//
//	pprquery -store web.store -node 42 -topk 10
//	pprquery -store web.store -node 42 -machines 6      # simulate a cluster
//	pprquery -store web.store -node 42 -verify          # check vs power iteration
//	pprquery -store web.store -node 42 -disk            # serve from the mmap'd file
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
		disk      = flag.Bool("disk", false, "serve vectors from disk instead of loading the store into memory")
	)
	flag.Parse()

	q := int32(*node)
	if *disk {
		ds, err := core.OpenDiskStore(*storePath)
		if err != nil {
			fatal(err)
		}
		defer ds.Close()
		start := time.Now()
		ppv, err := ds.Query(q)
		if err != nil {
			fatal(err)
		}
		st := ds.Stats()
		mode := "readat-fallback"
		if st.Mmap {
			mode = "mmap"
		}
		fmt.Printf("disk-resident query (%s): %v — %d reads, %d cache hits\n",
			mode, time.Since(start).Round(time.Microsecond), st.Reads, st.CacheHits)
		printTop(ppv, q, *topk)
		return
	}

	store, err := core.LoadFile(*storePath)
	if err != nil {
		fatal(err)
	}
	var ppv sparse.Vector
	start := time.Now()
	if *machines > 0 {
		coord, err := cluster.NewLocalCluster(store, *machines)
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
		ppv, err = store.Query(q)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("centralized query: %v\n", time.Since(start).Round(time.Microsecond))
	}

	printTop(ppv, q, *topk)

	if *verify {
		oracle, err := ppr.PowerIteration(store.H.G, q, store.Params)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("vs power iteration: avg-L1 %.3e, L∞ %.3e\n",
			sparse.L1Distance(ppv, oracle)/float64(store.H.G.NumNodes()),
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

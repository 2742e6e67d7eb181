// Command pprserve runs one side of the paper's distributed architecture
// over TCP, plus an HTTP/JSON gateway for ordinary web clients.
//
// Worker mode — serve shard i of n from a store file (multiplexed wire
// protocol, bounded per-connection query pool):
//
//	pprserve -store web.store -shard 0 -of 3 -listen :7001
//
// A worker loads only its own slice of the store's vectors (about 1/n
// of them, core.LoadShard) plus the graph and tree; its startup log
// reports the megabytes of vectors it owns.
//
// Add -updates to accept edge-delta batches (UPDATE frames from a
// coordinator, POST /edges through a gateway): each batch recomputes
// only the dirty vectors of the worker's slice and swaps the serving
// snapshot atomically. The worker acknowledges with its own recompute
// count and a digest of the batch's whole dirty set; the coordinator
// requires equal digests and reports the summed count.
//
// Coordinator mode — query workers once and print the result:
//
//	pprserve -coordinator -workers host1:7001,host2:7002,host3:7003 -node 42
//
// Gateway mode — serve HTTP over the workers (with -conns multiplexed
// connections per worker):
//
//	pprserve -coordinator -workers host1:7001,host2:7002 -http :8080
//
// or over a local store with in-process shards (single-host quickstart):
//
//	pprserve -store web.store -of 4 -http :8080
//
// Add -disk to serve straight from the store file instead of loading it
// into memory — the §5.2 "vectors larger than main memory" deployment.
// The file is memory-mapped and vectors are folded zero-copy out of the
// page cache (-mmap=off falls back to plain reads; -cachecap bounds the
// vector cache). Works in both worker and local gateway mode; /stats
// then reports the disk cache and coalescing counters. -disk serving is
// read-only: it cannot be combined with -updates.
//
// Gateway endpoints: GET /ppv/{node}?topk=K, POST /ppv (batch or
// preference set), GET /healthz, GET /stats.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"exactppr/internal/cluster"
	"exactppr/internal/core"
)

func main() {
	var (
		storePath   = flag.String("store", "ppr.store", "store file (worker / local gateway mode)")
		shard       = flag.Int("shard", 0, "shard index (worker mode)")
		of          = flag.Int("of", 1, "total machines (worker / local gateway mode)")
		listen      = flag.String("listen", ":7001", "listen address (worker mode)")
		inFlight    = flag.Int("inflight", 0, "max concurrent queries per worker connection (0 = default)")
		coordinator = flag.Bool("coordinator", false, "run as coordinator")
		workers     = flag.String("workers", "", "comma-separated worker addresses (coordinator mode)")
		conns       = flag.Int("conns", 1, "multiplexed connections per worker (coordinator mode)")
		node        = flag.Int("node", 0, "query node (coordinator one-shot mode)")
		topk        = flag.Int("topk", 10, "entries to print (coordinator one-shot mode)")
		httpAddr    = flag.String("http", "", "serve the HTTP/JSON gateway on this address")
		timeout     = flag.Duration("timeout", 30*time.Second, "per-query timeout (gateway mode)")
		updates     = flag.Bool("updates", false, "accept edge-delta updates (worker / local gateway mode)")
		disk        = flag.Bool("disk", false, "serve vectors from the store file on demand instead of loading it into memory")
		mmapMode    = flag.String("mmap", "on", "disk mode: memory-map the store file (on) or force the ReadAt fallback (off)")
		cacheCap    = flag.Int("cachecap", 0, "disk mode: vectors held in the serving cache (0 = default 1024)")
	)
	flag.Parse()

	diskOpts, err := core.ParseDiskOptions(*mmapMode, *cacheCap)
	if err != nil {
		fatal(err)
	}

	if *coordinator {
		coord := dialCoordinator(*workers, *conns)
		if *httpAddr != "" {
			runGateway(*httpAddr, coord, *timeout)
			return
		}
		runQuery(coord, int32(*node), *topk)
		return
	}

	if *disk {
		if *updates {
			fatal(fmt.Errorf("-disk serving is read-only: drop -updates or serve from memory"))
		}
		serveDisk(*storePath, diskOpts, *shard, *of, *listen, *httpAddr, *inFlight, *timeout)
		return
	}

	if *httpAddr != "" {
		// Local gateway: shard the store across in-process machines and
		// serve HTTP directly — no TCP workers needed on one host. With
		// -updates the machines share one live store and POST /edges
		// applies dirty-partition batches to it.
		store, err := loadStore(*storePath, 0, 0)
		if err != nil {
			fatal(err)
		}
		var backend cluster.Querier
		if *updates {
			live, err := cluster.NewLiveLocalCluster(store, *of)
			if err != nil {
				fatal(err)
			}
			backend = live
		} else {
			coord, err := cluster.NewLocalCluster(store, *of)
			if err != nil {
				fatal(err)
			}
			backend = coord
		}
		fmt.Fprintf(os.Stderr, "gateway: %d in-process shards (updates=%v)\n", *of, *updates)
		runGateway(*httpAddr, backend, *timeout)
		return
	}

	// Worker: load only this machine's slice of the store.
	store, err := loadStore(*storePath, *shard, *of)
	if err != nil {
		fatal(err)
	}
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	srv := &cluster.Server{MaxInFlight: *inFlight}
	sh := store.Shard()
	if *updates {
		live, err := cluster.NewLiveShard(core.NewLiveStore(store), *shard, *of)
		if err != nil {
			fatal(err)
		}
		srv.Machine, srv.Updater = live, live
	} else {
		srv.Machine = &cluster.ShardMachine{Shard: sh}
	}
	fmt.Fprintf(os.Stderr, "worker: shard %d/%d (%d hubs, %d leaves, %.2f MB owned, updates=%v) listening on %s\n",
		*shard, *of, sh.HubCount(), sh.LeafCount(), float64(sh.SpaceBytes())/(1<<20), *updates, l.Addr())
	if err := srv.Serve(l); err != nil {
		fatal(err)
	}
}

// loadStore loads the whole store (of = 0) or machine shard's slice of
// it.
func loadStore(path string, shard, of int) (*core.Store, error) {
	if of == 0 {
		return core.LoadFile(path)
	}
	return core.LoadShard(path, shard, of)
}

// serveDisk runs worker or local-gateway mode over a DiskStore: the
// mmap serving path behind the same coordinator/gateway stack as the
// in-memory backends.
func serveDisk(storePath string, opts core.DiskOptions, shard, of int, listen, httpAddr string, inFlight int, timeout time.Duration) {
	ds, err := core.OpenDiskStoreWith(storePath, opts)
	if err != nil {
		fatal(err)
	}
	mode := "mmap"
	if !ds.Stats().Mmap {
		mode = "readat-fallback"
	}

	if httpAddr != "" {
		c, err := cluster.NewDiskLocalCluster(ds, of)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "gateway: %d in-process disk shards (%s)\n", of, mode)
		runGateway(httpAddr, c, timeout)
		return
	}

	l, err := net.Listen("tcp", listen)
	if err != nil {
		fatal(err)
	}
	if shard < 0 || shard >= of {
		fatal(fmt.Errorf("shard %d out of range [0,%d)", shard, of))
	}
	shards, err := core.SplitDisk(ds, of)
	if err != nil {
		fatal(err)
	}
	sh := shards[shard]
	srv := &cluster.Server{
		MaxInFlight: inFlight,
		Machine:     &cluster.LocalMachine{Backend: sh},
	}
	fmt.Fprintf(os.Stderr, "worker: disk shard %d/%d (%d hubs, %d leaves, %.2f MB on disk, %s) listening on %s\n",
		shard, of, sh.HubCount(), sh.LeafCount(), float64(sh.SpaceBytes())/(1<<20), mode, l.Addr())
	if err := srv.Serve(l); err != nil {
		fatal(err)
	}
}

func dialCoordinator(workerList string, conns int) *cluster.Coordinator {
	addrs := strings.Split(workerList, ",")
	if workerList == "" || len(addrs) == 0 {
		fatal(fmt.Errorf("coordinator mode needs -workers"))
	}
	var machines []cluster.Machine
	for _, addr := range addrs {
		p, err := cluster.DialPool(strings.TrimSpace(addr), conns)
		if err != nil {
			fatal(fmt.Errorf("dial %s: %w", addr, err))
		}
		machines = append(machines, p)
	}
	coord, err := cluster.NewCoordinator(machines...)
	if err != nil {
		fatal(err)
	}
	return coord
}

func runQuery(coord *cluster.Coordinator, node int32, topk int) {
	stats, err := coord.Query(node)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("query %d over %d workers: %v wall, %.1f KB received\n",
		node, coord.NumMachines(), stats.Wall.Round(time.Microsecond), float64(stats.BytesReceived)/1024)
	for i, e := range stats.Result.TopK(topk) {
		fmt.Printf("%3d. node %-8d %.6f\n", i+1, e.ID, e.Score)
	}
}

func runGateway(addr string, backend cluster.Querier, timeout time.Duration) {
	g := cluster.NewGateway(backend)
	g.Timeout = timeout
	machines := 0
	if c, ok := backend.(interface{ NumMachines() int }); ok {
		machines = c.NumMachines()
	}
	fmt.Fprintf(os.Stderr, "gateway: serving HTTP on %s (%d machines, %v timeout)\n",
		addr, machines, timeout)
	if err := http.ListenAndServe(addr, g.Handler()); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pprserve:", err)
	os.Exit(1)
}

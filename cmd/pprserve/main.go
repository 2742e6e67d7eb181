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
// page cache, through a 1,024-vector cache. Works in both worker and
// local gateway mode; /stats then reports the disk cache and coalescing
// counters. -disk serving is read-only: it cannot be combined with
// -updates.
//
// Gateway endpoints: GET /ppv/{node}?topk=K, POST /ppv (batch or
// preference set), POST /edges, GET /healthz, GET /stats. -timeout
// bounds each query, in gateway and one-shot coordinator mode alike.
package main

import (
	"context"
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
		coordinator = flag.Bool("coordinator", false, "run as coordinator")
		workers     = flag.String("workers", "", "comma-separated worker addresses (coordinator mode)")
		conns       = flag.Int("conns", 1, "multiplexed connections per worker (coordinator mode)")
		node        = flag.Int("node", 0, "query node (coordinator one-shot mode)")
		topk        = flag.Int("topk", 10, "entries to print (coordinator one-shot mode)")
		httpAddr    = flag.String("http", "", "serve the HTTP/JSON gateway on this address")
		timeout     = flag.Duration("timeout", 30*time.Second, "per-query timeout (gateway and coordinator mode)")
		updates     = flag.Bool("updates", false, "accept edge-delta updates (worker / local gateway mode)")
		disk        = flag.Bool("disk", false, "serve vectors from the store file on demand instead of loading it into memory")
	)
	flag.Parse()

	if *coordinator {
		coord := dialCoordinator(*workers, *conns)
		if *httpAddr != "" {
			runGateway(*httpAddr, coord, *timeout)
			return
		}
		runQuery(coord, int32(*node), *topk, *timeout)
		return
	}
	if *disk && *updates {
		fatal(fmt.Errorf("-disk serving is read-only: drop -updates or serve from memory"))
	}

	if *httpAddr != "" {
		// Local gateway: shard the store across in-process machines and
		// serve HTTP directly — no TCP workers needed on one host.
		backend, what, err := localCluster(*storePath, *of, *disk, *updates)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "gateway: %d in-process %s\n", *of, what)
		runGateway(*httpAddr, backend, *timeout)
		return
	}

	srv, what, err := worker(*storePath, *shard, *of, *disk, *updates)
	if err != nil {
		fatal(err)
	}
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "worker: %s listening on %s\n", what, l.Addr())
	if err := srv.Serve(l); err != nil {
		fatal(err)
	}
}

// localCluster opens the local gateway's backend: of in-process
// machines over the disk store (-disk), over one live store that
// POST /edges updates (-updates), or over the loaded store. It also
// describes the machines for the startup log.
func localCluster(path string, of int, disk, updates bool) (cluster.Querier, string, error) {
	if disk {
		ds, err := core.OpenDiskStore(path)
		if err != nil {
			return nil, "", err
		}
		c, err := cluster.NewDiskLocalCluster(ds, of)
		return c, "disk shards (" + diskMode(ds) + ")", err
	}
	store, err := core.LoadFile(path)
	if err != nil {
		return nil, "", err
	}
	if updates {
		c, err := cluster.NewLiveLocalCluster(store, of)
		return c, "shards (updates=true)", err
	}
	c, err := cluster.NewLocalCluster(store, of)
	return c, "shards (updates=false)", err
}

// worker builds the TCP server for machine shard of `of`: a slice of
// the disk store (-disk), or the shard's slice loaded into memory
// (core.LoadShard), live when -updates is set. It also describes the
// slice for the startup log.
func worker(path string, shard, of int, disk, updates bool) (*cluster.Server, string, error) {
	srv := &cluster.Server{}
	var hubs, leaves int
	var space int64
	where := "owned"
	if disk {
		if shard < 0 || shard >= of {
			return nil, "", fmt.Errorf("shard %d out of range [0,%d)", shard, of)
		}
		ds, err := core.OpenDiskStore(path)
		if err != nil {
			return nil, "", err
		}
		shards, err := core.SplitDisk(ds, of)
		if err != nil {
			return nil, "", err
		}
		sh := shards[shard]
		hubs, leaves, space, where = sh.HubCount(), sh.LeafCount(), sh.SpaceBytes(), "on disk, "+diskMode(ds)
		srv.Machine = &cluster.LocalMachine{Backend: sh}
	} else {
		store, err := core.LoadShard(path, shard, of)
		if err != nil {
			return nil, "", err
		}
		hubs, leaves, space = store.HubCount(), store.LeafCount(), store.SpaceBytes()
		srv.Machine = &cluster.ShardMachine{Shard: store}
		if updates {
			live, err := cluster.NewLiveShard(core.NewLiveStore(store), shard, of)
			if err != nil {
				return nil, "", err
			}
			srv.Machine, srv.Updater = live, live
		}
	}
	return srv, fmt.Sprintf("shard %d/%d (%d hubs, %d leaves, %.2f MB %s, updates=%v)",
		shard, of, hubs, leaves, float64(space)/(1<<20), where, updates), nil
}

// diskMode names the disk store's serving path for the startup log.
func diskMode(ds *core.DiskStore) string {
	if ds.Stats().Mmap {
		return "mmap"
	}
	return "readat-fallback"
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

func runQuery(coord *cluster.Coordinator, node int32, topk int, timeout time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	stats, err := coord.QueryCtx(ctx, node)
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

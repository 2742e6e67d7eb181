// Command pprserve runs one side of the paper's distributed architecture
// over TCP, plus an HTTP/JSON gateway for ordinary web clients.
//
// Worker mode — serve shard i of n from a store file (multiplexed wire
// protocol, bounded per-connection query pool):
//
//	pprserve -store web.store -shard 0 -of 3 -listen :7001
//
// A read-only worker memory-maps the store file and folds its slice
// (core.SplitDisk) zero-copy out of the page cache — the paper's §5.2
// deployment for vectors larger than main memory. Its startup log
// reports the megabytes of vectors it owns. Records are checked when a
// query reads them, so a corrupt payload fails the queries that read
// it, not the worker's startup. Where mmap is unavailable the worker
// reads the whole file into memory, not just its slice.
//
// Add -updates to accept edge-delta batches (UPDATE frames from a
// coordinator, POST /edges through a gateway). The worker then loads
// only its own slice onto the heap (core.LoadShard); each batch
// recomputes only the dirty vectors of that slice and swaps the
// serving snapshot atomically. The worker acknowledges with its own
// recompute count and a digest of the batch's whole dirty set; the
// coordinator requires equal digests and reports the summed count.
//
// Coordinator mode — query workers once and print the result:
//
//	pprserve -coordinator -workers host1:7001,host2:7002,host3:7003 -node 42
//
// Gateway mode — serve HTTP over the workers (one multiplexed
// connection per worker):
//
//	pprserve -coordinator -workers host1:7001,host2:7002 -http :8080
//
// or over a local store with in-process shards (single-host quickstart),
// mapped like a read-only worker's, or loaded and live with -updates:
//
//	pprserve -store web.store -of 4 -http :8080
//
// A read-only gateway's /stats reports the records read and whether the
// file is mapped.
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
		node        = flag.Int("node", 0, "query node (coordinator one-shot mode)")
		topk        = flag.Int("topk", 10, "entries to print (coordinator one-shot mode)")
		httpAddr    = flag.String("http", "", "serve the HTTP/JSON gateway on this address")
		timeout     = flag.Duration("timeout", 30*time.Second, "per-query timeout (gateway and coordinator mode)")
		updates     = flag.Bool("updates", false, "accept edge-delta updates (worker / local gateway mode)")
	)
	flag.Parse()

	if *coordinator {
		coord := dialCoordinator(*workers)
		if *httpAddr != "" {
			runGateway(*httpAddr, coord, *timeout)
			return
		}
		runQuery(coord, int32(*node), *topk, *timeout)
		return
	}
	if *httpAddr != "" {
		// Local gateway: shard the store across in-process machines and
		// serve HTTP directly — no TCP workers needed on one host.
		backend, what, err := localCluster(*storePath, *of, *updates)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "gateway: %d in-process %s\n", *of, what)
		runGateway(*httpAddr, backend, *timeout)
		return
	}

	srv, what, err := worker(*storePath, *shard, *of, *updates)
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
// machines over one live store that POST /edges updates (-updates), or
// over the mapped store file. It also describes the machines for the
// startup log.
func localCluster(path string, of int, updates bool) (cluster.Querier, string, error) {
	if updates {
		store, err := core.LoadFile(path)
		if err != nil {
			return nil, "", err
		}
		c, err := cluster.NewLiveLocalCluster(store, of)
		return c, "shards (updates=true)", err
	}
	ds, err := core.OpenDiskStore(path)
	if err != nil {
		return nil, "", err
	}
	c, err := cluster.NewDiskLocalCluster(ds, of)
	return c, "shards (" + diskMode(ds) + ", updates=false)", err
}

// worker builds the TCP server for machine shard of `of`: a view of the
// mapped store file, or with -updates the shard's slice loaded onto the
// heap (core.LoadShard) behind a LiveShard. It also describes the slice
// for the startup log.
func worker(path string, shard, of int, updates bool) (*cluster.Server, string, error) {
	if shard < 0 || shard >= of {
		return nil, "", fmt.Errorf("shard %d out of range [0,%d)", shard, of)
	}
	describe := func(sh interface {
		HubCount() int
		LeafCount() int
		SpaceBytes() int64
	}, where string) string {
		return fmt.Sprintf("shard %d/%d (%d hubs, %d leaves, %.2f MB %s, updates=%v)",
			shard, of, sh.HubCount(), sh.LeafCount(), float64(sh.SpaceBytes())/(1<<20), where, updates)
	}
	if updates {
		store, err := core.LoadShard(path, shard, of)
		if err != nil {
			return nil, "", err
		}
		live, err := cluster.NewLiveShard(core.NewLiveStore(store), shard, of)
		if err != nil {
			return nil, "", err
		}
		return &cluster.Server{Machine: live, Updater: live}, describe(store, "owned"), nil
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
	where := fmt.Sprintf("on disk, %s, %.2f MB resident", diskMode(ds), float64(ds.Stats().ResidentBytes)/(1<<20))
	return &cluster.Server{Machine: &cluster.LocalMachine{Backend: sh}}, describe(sh, where), nil
}

// diskMode names the disk store's serving path for the startup log.
func diskMode(ds *core.DiskStore) string {
	if ds.Stats().Mmap {
		return "mmap"
	}
	return "in-memory copy"
}

func dialCoordinator(workerList string) *cluster.Coordinator {
	addrs := strings.Split(workerList, ",")
	if workerList == "" || len(addrs) == 0 {
		fatal(fmt.Errorf("coordinator mode needs -workers"))
	}
	var machines []cluster.Machine
	for _, addr := range addrs {
		p, err := cluster.Dial(strings.TrimSpace(addr))
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

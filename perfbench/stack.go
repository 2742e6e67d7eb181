package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"exactppr/internal/cluster"
	"exactppr/internal/core"
	"exactppr/internal/gen"
	"exactppr/internal/hierarchy"
	"exactppr/internal/ppr"
)

// The fixture: a fixed-seed 12,000-node web-like graph, its HGPA
// hierarchy, and the α = 0.15, ε = 1e-4 pre-computation, saved as a v2
// store file. Every set-up rebuilds it from scratch, exactly as an
// operator runs pprgen → pprprecomp before starting pprserve.
const (
	fixtureDataset = "web"
	fixtureScale   = 1
	fixtureSeed    = 1
	// machines is the cluster size of every stack: two workers, as a
	// two-host deployment would run.
	machines = 2
)

var params = ppr.Params{Alpha: 0.15, Eps: 1e-4}

// setupTimes records one set-up, stage by stage.
type setupTimes struct {
	graph, partition, precompute, save, load, split, dial time.Duration
	// total runs from the first stage to the first servable request.
	total time.Duration

	pushesPerVector, denseFrac, fileMB float64
}

// buildStoreFile generates the fixture graph, partitions it, runs the
// pre-computation and saves the store to path. Nothing it builds outlives
// the call, so the serving heap holds only what a stack loads back.
func buildStoreFile(path string, t *setupTimes) error {
	start := time.Now()
	g, err := gen.Dataset(fixtureDataset, fixtureScale, fixtureSeed)
	if err != nil {
		return fmt.Errorf("generate graph: %w", err)
	}
	t.graph = time.Since(start)

	start = time.Now()
	h, err := hierarchy.Build(g, hierarchy.Options{Seed: fixtureSeed})
	if err != nil {
		return fmt.Errorf("partition: %w", err)
	}
	t.partition = time.Since(start)

	start = time.Now()
	s, info, err := core.PrecomputeWithInfo(h, params, 0)
	if err != nil {
		return fmt.Errorf("precompute: %w", err)
	}
	t.precompute = time.Since(start)
	t.pushesPerVector = float64(info.Pushes) / float64(info.Vectors)
	t.denseFrac = float64(info.DenseFallbacks) / float64(info.Vectors)

	start = time.Now()
	if err := core.SaveFile(path, s); err != nil {
		return fmt.Errorf("save store: %w", err)
	}
	t.save = time.Since(start)
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	t.fileMB = float64(fi.Size()) / (1 << 20)
	return nil
}

// stack is one running serving deployment: workers (TCP or in-process)
// behind a coordinator behind the HTTP gateway, all on loopback.
type stack struct {
	url     string
	backend cluster.Querier
	disk    *core.DiskStore // disk-uniform: the served store
	rec     *recorder       // traced stacks only

	http    *http.Server
	workers []net.Listener
	pools   []*cluster.Pool
	served  sync.WaitGroup // every Serve goroutine the stack started
}

// setUp builds the fixture and starts the workload's stack, wired the way
// the matching pprserve mode wires it. A non-nil rec selects the traced
// wiring: the same components with timing wrappers at each layer
// boundary.
func setUp(w workload, dir string, rec *recorder) (*stack, setupTimes, error) {
	var t setupTimes
	start := time.Now()
	path := filepath.Join(dir, "fixture.store")
	if err := buildStoreFile(path, &t); err != nil {
		return nil, t, err
	}
	st := &stack{rec: rec}
	var err error
	if w.stack == stackDisk {
		err = st.openDisk(path, &t)
	} else {
		err = st.startWorkers(path, w.stack == stackTCPUpdates, &t)
	}
	if err == nil {
		dial := time.Now()
		err = st.serveHTTP()
		t.dial += time.Since(dial)
	}
	if err != nil {
		st.Close()
		return nil, t, err
	}
	t.total = time.Since(start)
	return st, t, nil
}

// startWorkers runs `pprserve -store F -shard i -of 2 -listen …` (with
// -updates for tcp-update) for both shards, each worker over its own
// loaded copy of the store, and dials them as `pprserve -coordinator
// -workers … -conns 1` does.
func (st *stack) startWorkers(path string, updates bool, t *setupTimes) error {
	start := time.Now()
	stores := make([]*core.Store, machines)
	for i := range stores {
		s, err := core.LoadFile(path)
		if err != nil {
			return fmt.Errorf("load store: %w", err)
		}
		stores[i] = s
	}
	t.load = time.Since(start)

	start = time.Now()
	servers := make([]*cluster.Server, machines)
	for i, s := range stores {
		srv := &cluster.Server{}
		if updates {
			live, err := cluster.NewLiveShard(core.NewLiveStore(s), i, machines)
			if err != nil {
				return err
			}
			srv.Machine, srv.Updater = live, live
			if st.rec != nil {
				srv.Machine = &cluster.LocalMachine{Backend: st.rec.fold(func() cluster.PackedQuerier { return live.Shard() })}
				srv.Updater = st.rec.workerUpdater(live, i)
			}
		} else {
			shards, err := core.Split(s, machines)
			if err != nil {
				return err
			}
			sh := shards[i]
			srv.Machine = &cluster.ShardMachine{Shard: sh}
			if st.rec != nil {
				srv.Machine = &cluster.LocalMachine{Backend: st.rec.fold(func() cluster.PackedQuerier { return sh })}
			}
		}
		servers[i] = srv
	}
	t.split = time.Since(start)

	start = time.Now()
	ms := make([]cluster.Machine, machines)
	for i, srv := range servers {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		st.workers = append(st.workers, l)
		st.served.Add(1)
		go func() {
			defer st.served.Done()
			srv.Serve(l)
		}()
		p, err := cluster.DialPool(l.Addr().String(), 1)
		if err != nil {
			return fmt.Errorf("dial worker %d: %w", i, err)
		}
		st.pools = append(st.pools, p)
		ms[i] = st.rec.machine(p, i)
	}
	coord, err := cluster.NewCoordinator(ms...)
	if err != nil {
		return err
	}
	st.backend = st.rec.backend(coord)
	t.dial = time.Since(start)
	return nil
}

// openDisk runs `pprserve -store F -disk -of 2 -http …`: the mmap store
// with its default cache, split across in-process machines.
func (st *stack) openDisk(path string, t *setupTimes) error {
	start := time.Now()
	ds, err := core.OpenDiskStoreWith(path, core.DiskOptions{})
	if err != nil {
		return fmt.Errorf("open disk store: %w", err)
	}
	st.disk = ds
	t.load = time.Since(start)

	start = time.Now()
	if st.rec == nil {
		c, err := cluster.NewDiskLocalCluster(ds, machines)
		if err != nil {
			return err
		}
		st.backend = c
	} else {
		// The traced stack assembles cluster.NewDiskLocalCluster's wiring
		// itself so it can time each machine and fold.
		shards, err := core.SplitDisk(ds, machines)
		if err != nil {
			return err
		}
		ms := make([]cluster.Machine, len(shards))
		for i, sh := range shards {
			ms[i] = st.rec.machine(&cluster.LocalMachine{Backend: st.rec.fold(func() cluster.PackedQuerier { return sh })}, i)
		}
		coord, err := cluster.NewCoordinator(ms...)
		if err != nil {
			return err
		}
		st.backend = st.rec.backend(diskBackend{coord, ds})
	}
	t.split = time.Since(start)
	return nil
}

// diskBackend mirrors cluster.DiskCluster for the traced disk stack,
// whose machines the benchmark wraps itself.
type diskBackend struct {
	*cluster.Coordinator
	ds *core.DiskStore
}

// DiskStats feeds the gateway's /stats, as DiskCluster's does.
func (b diskBackend) DiskStats() core.DiskStats { return b.ds.Stats() }

// serveHTTP starts the gateway as runGateway in pprserve does, then waits
// for the first servable request.
func (st *stack) serveHTTP() error {
	var h http.Handler = cluster.NewGateway(st.backend).Handler()
	if st.rec != nil {
		h = st.rec.handler(h)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	st.http = &http.Server{Handler: h}
	st.served.Add(1)
	go func() {
		defer st.served.Done()
		st.http.Serve(l)
	}()
	st.url = "http://" + l.Addr().String()

	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	resp, err := (&http.Client{Transport: tr}).Get(st.url + "/ppv/0?topk=10")
	if err != nil {
		return fmt.Errorf("first request: %w", err)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("first request: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("first request: status %d", resp.StatusCode)
	}
	return nil
}

// Close stops the gateway, the coordinator's connections and the
// workers, waits for every Serve goroutine to return, and unmaps the
// disk store.
func (st *stack) Close() {
	if st.http != nil {
		st.http.Close()
	}
	for _, p := range st.pools {
		p.Close()
	}
	for _, l := range st.workers {
		l.Close()
	}
	st.served.Wait()
	if st.disk != nil {
		st.disk.Close()
	}
}

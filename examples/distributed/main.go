// Distributed: the paper's architecture end to end over real TCP — three
// workers each serving one shard of the pre-computation, a coordinator
// that broadcasts a query and sums the three response vectors. One round
// of communication per machine per query, exactly as §4.4 promises.
//
// The serving layer is concurrent: each worker connection is multiplexed
// (many queries in flight at once), and the final act puts an HTTP/JSON
// gateway in front of the coordinator and queries it like any web client
// would — single-source, batch fan-out, and the stats endpoint.
//
// Everything runs in one process for convenience; the workers speak the
// same wire protocol cmd/pprserve uses across hosts.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"exactppr"
	"exactppr/internal/cluster"
)

func main() {
	g, err := exactppr.GenerateDataset("email", 0.3, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())

	store, err := exactppr.BuildHGPA(g, exactppr.HierarchyOptions{Seed: 3}, exactppr.DefaultParams(), 0)
	if err != nil {
		log.Fatal(err)
	}

	const machines = 3
	shards, err := exactppr.Split(store, machines)
	if err != nil {
		log.Fatal(err)
	}

	// Start one TCP worker per shard on a loopback port.
	var workers []exactppr.Machine
	for i, sh := range shards {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		go (&cluster.Server{Machine: &cluster.ShardMachine{Shard: sh}}).Serve(l)
		m, err := exactppr.DialPool(l.Addr().String(), 1)
		if err != nil {
			log.Fatal(err)
		}
		defer m.Close()
		workers = append(workers, m)
		fmt.Printf("worker %d: %s (%d hubs, %d leaf vectors, %.2f MB)\n",
			i, l.Addr(), sh.HubCount(), sh.LeafCount(), float64(sh.SpaceBytes())/(1<<20))
	}

	coord, err := exactppr.NewCoordinator(workers...)
	if err != nil {
		log.Fatal(err)
	}

	for _, q := range []int32{0, 100, 500} {
		stats, err := coord.Query(q)
		if err != nil {
			log.Fatal(err)
		}
		top := stats.Result.TopK(3)
		fmt.Printf("query %-4d → %v wall, %5.1f KB over the wire, top-3:", q,
			stats.Wall.Round(time.Microsecond), float64(stats.BytesReceived)/1024)
		for _, e := range top {
			fmt.Printf("  %d:%.4f", e.ID, e.Score)
		}
		fmt.Println()

		// The distributed answer is exact: verify against power iteration.
		oracle, err := exactppr.PowerIteration(g, q, exactppr.DefaultParams())
		if err != nil {
			log.Fatal(err)
		}
		if oracle.TopK(1)[0].ID != top[0].ID {
			log.Fatalf("distributed result disagrees with power iteration at node %d", q)
		}
	}
	fmt.Println("all distributed results verified against power iteration")

	// Hammer the cluster concurrently: 32 clients share the same three
	// multiplexed connections, no lock-step round trips.
	concStart := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(u int32) {
			defer wg.Done()
			if _, err := coord.Query(u); err != nil {
				log.Fatalf("concurrent query %d: %v", u, err)
			}
		}(int32(i * 17 % g.NumNodes()))
	}
	wg.Wait()
	fmt.Printf("32 concurrent queries in %v over 3 multiplexed connections\n",
		time.Since(concStart).Round(time.Microsecond))

	// Front the coordinator with the HTTP/JSON gateway — the same thing
	// `pprserve -coordinator -workers ... -http :8080` runs across hosts.
	gw := httptest.NewServer(exactppr.NewGateway(coord).Handler())
	defer gw.Close()

	resp, err := http.Get(fmt.Sprintf("%s/ppv/%d?topk=3", gw.URL, 100))
	if err != nil {
		log.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Printf("GET /ppv/100?topk=3 → %s", body)

	batch, _ := json.Marshal(map[string]any{"nodes": []int32{0, 100, 500}, "topk": 2})
	resp, err = http.Post(gw.URL+"/ppv", "application/json", bytes.NewReader(batch))
	if err != nil {
		log.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Printf("POST /ppv (batch of 3) → %s", body)

	resp, err = http.Get(gw.URL + "/stats")
	if err != nil {
		log.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Printf("GET /stats → %s", body)
}

// Package exactppr computes EXACT Personalized PageRank Vectors (PPVs)
// on a coordinator-based share-nothing cluster with a single round of
// communication per query, reproducing "Distributed Algorithms on Exact
// Personalized PageRank" (Guo, Cao, Cong, Lu, Lin — SIGMOD 2017).
//
// The library decomposes the graph with a built-in METIS-style multilevel
// partitioner into a hierarchy of subgraphs separated by hub nodes,
// pre-computes Jeh–Widom partial vectors and hubs skeleton vectors per
// subgraph (HGPA; GPA is the single-level special case), and answers any
// single-node PPV query exactly: each machine folds its hub slice into
// one sparse vector, and the coordinator sums them.
//
// Quick start:
//
//	g, _ := exactppr.LoadEdgeListFile("graph.txt")
//	store, _ := exactppr.BuildHGPA(g, exactppr.HierarchyOptions{}, exactppr.DefaultParams(), 0)
//	ppv, _ := store.Query(42)
//	for _, e := range ppv.TopK(10) {
//	    fmt.Println(e.ID, e.Score)
//	}
//
// For a real cluster, persist the store with SaveStore, serve one slice
// per machine with cluster workers, and point a Coordinator at them. A
// read-only cmd/pprserve worker maps the file and serves its SplitDisk
// view; examples/distributed wires Split slices the same way in one
// process.
package exactppr

import (
	"io"

	"exactppr/internal/cluster"
	"exactppr/internal/core"
	"exactppr/internal/gen"
	"exactppr/internal/graph"
	"exactppr/internal/hierarchy"
	"exactppr/internal/ppr"
	"exactppr/internal/sparse"
)

// Re-exported types. Aliases keep the public surface in one import path
// while the implementation lives in focused internal packages.
type (
	// Graph is an immutable directed graph in CSR form. An edge-delta
	// batch yields a new graph (Graph.ApplyDelta / Store.ApplyUpdates).
	Graph = graph.Graph
	// GraphBuilder accumulates edges for a Graph.
	GraphBuilder = graph.Builder
	// Delta is a batch of edge insertions/deletions — the unit of
	// incremental maintenance.
	Delta = graph.Delta
	// Vector is a sparse PPV (node id → score) — the mutable map
	// representation used for construction and results.
	Vector = sparse.Vector
	// Packed is the immutable sorted columnar representation of a sparse
	// PPV — what stores keep and the wire carries. Convert with
	// Packed.Unpack and Pack.
	Packed = sparse.Packed
	// Entry is one (id, score) element of a Vector.
	Entry = sparse.Entry
	// Params are the PPR parameters: teleport α, tolerance ε, a work cap,
	// and the dangling-node policy (pre-computation supports only the
	// default, absorb).
	Params = ppr.Params
	// PrecomputeInfo reports the cost of a pre-computation run: wall and
	// task time, vectors and pushes.
	PrecomputeInfo = core.PrecomputeInfo
	// HierarchyOptions tunes the recursive partitioning.
	HierarchyOptions = hierarchy.Options
	// Hierarchy is the tree of subgraphs with per-level hub sets.
	Hierarchy = hierarchy.Hierarchy
	// Store is the HGPA pre-computation plus exact query construction.
	// Split returns one Store per machine, each holding that machine's
	// slice; a query on a slice answers the slice's additive share.
	Store = core.Store
	// LiveStore publishes a Store behind an atomic pointer and applies
	// edge-delta batches with dirty-partition recomputation; queries
	// keep serving the previous snapshot while a batch lands.
	LiveStore = core.LiveStore
	// UpdateInfo reports the cost of one incremental update batch.
	UpdateInfo = core.UpdateInfo
	// Coordinator fans queries out to machines and sums the shares.
	Coordinator = cluster.Coordinator
	// QueryStats reports one distributed query (result, bytes, times).
	QueryStats = cluster.QueryStats
	// Machine is the worker-side query interface.
	Machine = cluster.Machine
	// LocalMachine is an in-process Machine over a Store or DiskStore:
	// a slice from Split or SplitDisk answers its machine's share. A
	// Coordinator calls it on a goroutine of its own, in the same
	// fan-out that writes a TCP worker's (Dial) request.
	LocalMachine = cluster.LocalMachine
	// Gateway serves PPV queries over HTTP/JSON.
	Gateway = cluster.Gateway
	// Querier is the backend interface a Gateway serves from
	// (implemented by Coordinator).
	Querier = cluster.Querier
	// NetworkModel converts rounds and bytes into modeled wire time.
	NetworkModel = cluster.NetworkModel
	// GenConfig parameterizes the synthetic community-graph generator.
	GenConfig = gen.Config
)

// DefaultParams returns the paper's defaults: α = 0.15, ε = 1e-4.
func DefaultParams() Params { return ppr.Defaults() }

// BuildHGPAWithInfo is BuildHGPA plus pre-computation cost reporting
// (wall/task time, vectors, pushes).
func BuildHGPAWithInfo(g *Graph, opts HierarchyOptions, params Params, workers int) (*Store, *PrecomputeInfo, error) {
	h, err := hierarchy.Build(g, opts)
	if err != nil {
		return nil, nil, err
	}
	return core.PrecomputeWithInfo(h, params, workers)
}

// Pack converts a map Vector into its canonical packed (sorted
// columnar) form.
func Pack(v Vector) Packed { return sparse.Pack(v) }

// NewGraphBuilder returns a builder for a graph with n nodes.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// LoadEdgeList reads a SNAP-format edge list.
func LoadEdgeList(r io.Reader) (*Graph, error) { return graph.LoadEdgeList(r) }

// LoadEdgeListFile reads a SNAP-format edge list from a file.
func LoadEdgeListFile(path string) (*Graph, error) { return graph.LoadEdgeListFile(path) }

// GenerateCommunityGraph produces a synthetic directed graph with planted
// community structure (see gen.Config) — handy for experiments when real
// data is unavailable.
func GenerateCommunityGraph(cfg GenConfig) (*Graph, error) { return gen.Community(cfg) }

// GenerateDataset produces a named analogue of the paper's datasets
// (email, web, youtube, pld, pld_full) at the given scale.
func GenerateDataset(name string, scale float64, seed int64) (*Graph, error) {
	return gen.Dataset(name, scale, seed)
}

// BuildHGPA partitions g hierarchically and runs the full
// pre-computation with `workers` parallel workers (0 = all cores).
func BuildHGPA(g *Graph, opts HierarchyOptions, params Params, workers int) (*Store, error) {
	return core.BuildHGPA(g, opts, params, workers)
}

// BuildGPA is the single-level variant: m balanced parts, one hub set.
func BuildGPA(g *Graph, m int, params Params, workers int, seed int64) (*Store, error) {
	return core.BuildGPA(g, m, params, workers, seed)
}

// Split divides a store across n machines (the paper's hub-distributed
// load balancing): slice i is a Store holding machine i's vectors, whose
// queries answer that machine's additive share of the exact PPV.
func Split(s *Store, n int) ([]*Store, error) { return core.Split(s, n) }

// NewLiveStore wraps a store for incremental maintenance: ApplyUpdates
// applies an edge-delta batch (recomputing only the dirty partitions of
// the hierarchy) and atomically publishes the new snapshot.
func NewLiveStore(s *Store) *LiveStore { return core.NewLiveStore(s) }

// NewLocalCluster shards a store across n in-process machines behind a
// coordinator.
func NewLocalCluster(s *Store, n int) (*Coordinator, error) {
	return cluster.NewLocalCluster(s, n)
}

// NewLiveLocalCluster is NewLocalCluster over an updatable store: the
// machines share one LiveStore and the returned cluster's ApplyUpdates
// applies each batch exactly once (it also backs the gateway's
// POST /edges in single-host mode).
func NewLiveLocalCluster(s *Store, n int) (*cluster.LiveLocalCluster, error) {
	return cluster.NewLiveLocalCluster(s, n)
}

// NewCoordinator wires a coordinator over explicit machines (e.g. TCP
// workers reached with Dial).
func NewCoordinator(machines ...Machine) (*Coordinator, error) {
	return cluster.NewCoordinator(machines...)
}

// Dial connects to a pprserve worker over one multiplexed TCP
// connection (any number of queries may be in flight on it), which is
// re-dialed after a worker restart.
func Dial(addr string) (*cluster.Pool, error) { return cluster.Dial(addr) }

// NewGateway exposes a coordinator (or any cluster.Querier) over
// HTTP/JSON: GET /ppv/{node}, POST /ppv, /healthz, /stats.
func NewGateway(b cluster.Querier) *Gateway { return cluster.NewGateway(b) }

// PowerIteration computes a PPV by plain power iteration — the exactness
// oracle and the baseline the paper beats.
func PowerIteration(g *Graph, q int32, p Params) (Vector, error) {
	return ppr.PowerIteration(g, q, p)
}

// PowerIterationSet computes the PPV of a preference node set (uniform
// preference), using the linearity property of PPVs.
func PowerIterationSet(g *Graph, pref []int32, p Params) (Vector, error) {
	return ppr.PowerIterationSet(g, pref, p)
}

// Preference is a weighted preference node set for QuerySet.
type Preference = core.Preference

// DiskStore answers exact queries straight from a store file, for
// pre-computations larger than memory: memory-mapped zero-copy serving
// (the OS page cache is its vector cache) and a transposed skeleton
// index.
// SplitDisk returns one DiskStore view per machine; a query on a view
// answers that machine's additive share.
type DiskStore = core.DiskStore

// DiskStats is a snapshot of a DiskStore's serving counters (records
// read, mmap or in-memory copy).
type DiskStats = core.DiskStats

// DiskCluster is a coordinator over in-process disk slices; its
// DiskStats feed the gateway's /stats.
type DiskCluster = cluster.DiskCluster

// OpenDiskStore opens a store file for on-demand (disk-resident)
// querying; see core.DiskStore.
func OpenDiskStore(path string) (*DiskStore, error) { return core.OpenDiskStore(path) }

// SplitDisk divides a disk store across n machines with the same
// assignment as Split, so disk and memory slice shares are
// interchangeable. The views share ds's file bytes; closing any of
// them closes all.
func SplitDisk(ds *DiskStore, n int) ([]*DiskStore, error) { return core.SplitDisk(ds, n) }

// NewDiskLocalCluster shards a disk store across n in-process machines
// behind a coordinator — single-host serving for stores larger than
// memory.
func NewDiskLocalCluster(ds *DiskStore, n int) (*DiskCluster, error) {
	return cluster.NewDiskLocalCluster(ds, n)
}

// SaveStore persists a store; LoadStore restores it.
func SaveStore(w io.Writer, s *Store) error { return core.Save(w, s) }

// SaveStoreFile persists a store to a file path.
func SaveStoreFile(path string, s *Store) error { return core.SaveFile(path, s) }

// LoadStore reads a store written by SaveStore.
func LoadStore(r io.Reader) (*Store, error) { return core.Load(r) }

// LoadStoreFile reads a store from a file path.
func LoadStoreFile(path string) (*Store, error) { return core.LoadFile(path) }

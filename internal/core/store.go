// Package core implements the paper's contribution: exact distributed
// Personalized PageRank via graph partitioning. It provides
//
//   - Store: the HGPA pre-computation (§5) over a hierarchy — adjusted hub
//     partial vectors P_h, hubs skeleton vectors s_·(h), and leaf-level
//     local PPVs — plus the exact query-time construction (§4.3–4.4,
//     Theorems 1 and 3). GPA (§3) is the special case of a single-level
//     hierarchy.
//   - Split: the per-machine slices of a Store under the paper's
//     hub-distributed load balancing (§4.4). A slice is itself a Store
//     (or, from SplitDisk, a DiskStore) holding one machine's vectors;
//     a query on a slice answers that slice's additive share, and the
//     shares sum to the exact PPV, one vector per machine per query.
//   - JWStore: the PPV-JW brute-force baseline (§2.3) with
//     PageRank-selected hub nodes.
//
// # Construction identity actually implemented
//
// Partial vectors follow Definition 1 (no hub visits after the start; see
// internal/ppr.PartialVector). Under that definition the adjusted partial
// P_h = p_h − α·x_h vanishes on every hub entry, and the exact PPV is
//
//	r_u = final(u) + Σ_{G ∈ Path(u)} Σ_{h ∈ H(G)} [ S_u(h)/α · P_h  +  S_u(h)·x_h ]
//
// where S_u(h) = s_u[G](h) − α·f_u(h), final(u) is the leaf-level local
// PPV for a non-hub u or p_u itself when u is a hub, and the S_u(h)·x_h
// term supplies the PPV values AT hub nodes straight from the skeleton
// (the "last hub visit" renewal argument; verified against power
// iteration in the package tests). The second term is machine-local in
// the distributed setting — whoever owns hub h owns both P_h and the
// skeleton vector of h — so the one-round protocol of §4.4 is preserved.
package core

import (
	"errors"
	"fmt"
	"time"

	"exactppr/internal/graph"
	"exactppr/internal/hierarchy"
	"exactppr/internal/ppr"
	"exactppr/internal/sparse"
)

// Store holds the complete HGPA pre-computation for a hierarchy.
type Store struct {
	H      *hierarchy.Hierarchy
	Params ppr.Params

	// HubPartial[h] is the ADJUSTED partial vector P_h = p_h − α·x_h of
	// hub h, computed within h's home subgraph w.r.t. that subgraph's hub
	// set, in global id space. Stored packed (sorted columnar): the
	// vectors are write-once at pre-computation and then only folded,
	// so the flat representation keeps the query path cache-friendly
	// and allocation-free.
	HubPartial map[int32]sparse.Packed
	// Skeleton[h](w) = s_w(h): the local PPV value at hub h for every
	// source w in h's home subgraph, in global id space.
	Skeleton map[int32]sparse.Packed
	// LeafPPV[u] is the local PPV of non-hub node u w.r.t. its leaf-level
	// virtual subgraph, in global id space.
	LeafPPV map[int32]sparse.Packed

	// own is the machine slice a shard-local store holds (see Split and
	// LoadShard): its sections carry only the vectors own admits. Nil
	// for a whole store.
	own *owner
}

// ErrMissingVector reports a fold that needs a vector its source does
// not hold — a corrupt or mis-sliced store. The fold fails rather than
// adding a zero vector and answering silently wrong.
var ErrMissingVector = errors.New("core: missing vector")

var sectionNames = [...]string{secHubPartial: "hub partial", secLeafPPV: "leaf PPV", secHubPlan: "hub plan", secSkeleton: "skeleton"}

// missingVector is ErrMissingVector wrapped with the section and key.
func missingVector(sec int8, key int32) error {
	return fmt.Errorf("%w: %s for key %d", ErrMissingVector, sectionNames[sec], key)
}

// PrecomputeInfo reports the cost of a pre-computation run. Because the
// tasks are independent and load-balanced, TotalTaskTime/n estimates the
// per-machine offline time on an n-machine cluster (the quantity of
// Figures 12 and 16) regardless of how many workers ran locally.
type PrecomputeInfo struct {
	// Wall is the local end-to-end time with `workers` parallel workers.
	Wall time.Duration
	// TotalTaskTime is the summed compute time of all tasks.
	TotalTaskTime time.Duration
	// Tasks is the number of per-node/per-hub tasks executed.
	Tasks int
	// Vectors is the number of vectors the kernels produced.
	Vectors int
	// Pushes is the total number of residual pops across all kernel
	// invocations — the work-proportional cost unit; divide by Vectors
	// for the pushes/vector figure of the bench artifacts.
	Pushes int64
	// DenseFallbacks always reads 0: the kernels have one sparse
	// residual loop and no dense fallback.
	//
	// Deprecated: kept only for callers that still read it.
	DenseFallbacks int64
}

// Precompute runs the distributed pre-computation of §5 on ppr.Run's
// pool of `workers` (0 = GOMAXPROCS). Every task touches only one
// subgraph, mirroring the paper's claim that pre-computation needs no
// inter-machine communication. A failing build returns the error of its
// first failing task in tree order, whatever the worker count.
func Precompute(h *hierarchy.Hierarchy, params ppr.Params, workers int) (*Store, error) {
	s, _, err := PrecomputeWithInfo(h, params, workers)
	return s, err
}

// PrecomputeWithInfo is Precompute plus timing information.
func PrecomputeWithInfo(h *hierarchy.Hierarchy, params ppr.Params, workers int) (*Store, *PrecomputeInfo, error) {
	start := time.Now()
	if err := params.ValidatePrecompute(); err != nil {
		return nil, nil, err
	}
	var tasks []precomputeTask
	for _, n := range h.Nodes() {
		tasks = append(tasks, nodeTasks(n)...)
	}
	withSubgraphs(h.G, tasks, workers)
	nHubs, nLeaves := 0, 0
	for _, t := range tasks {
		if t.hub {
			nHubs++
		} else {
			nLeaves++
		}
	}
	s := &Store{
		H:          h,
		Params:     params,
		HubPartial: make(map[int32]sparse.Packed, nHubs),
		Skeleton:   make(map[int32]sparse.Packed, nHubs),
		LeafPPV:    make(map[int32]sparse.Packed, nLeaves),
	}
	taskTime, kstats, err := s.runTasks(tasks, workers)
	if err != nil {
		return nil, nil, err
	}
	info := &PrecomputeInfo{
		Wall:          time.Since(start),
		TotalTaskTime: taskTime,
		Tasks:         len(tasks),
		Vectors:       int(kstats.Vectors),
		Pushes:        kstats.Pushes,
	}
	return s, info, nil
}

// precomputeTask is one vector-producing unit of work: a hub's
// partial+skeleton pair, or one leaf PPV. The tasks of one tree node
// share its virtual subgraph, and its hub tasks one read-only isHub
// mask, built once per node instead of once per hub (the mask is
// O(|subgraph|) and the root node alone can carry dozens of hubs).
type precomputeTask struct {
	node  *hierarchy.Node
	u     int32 // global id
	hub   bool
	sub   *graph.Subgraph // the node's virtual subgraph (withSubgraphs)
	isHub []bool          // hub mask in sub's id space; nil for leaf tasks
}

// Vectors returns how many store vectors the task produces.
func (t precomputeTask) Vectors() int {
	if t.hub {
		return 2 // adjusted partial + skeleton
	}
	return 1
}

// nodeTasks lists the tasks local to one tree node: its hubs, and — for
// leaves — the PPVs of its non-hub members. This is the unit the
// incremental updater re-runs per dirty node.
func nodeTasks(n *hierarchy.Node) []precomputeTask {
	var tasks []precomputeTask
	for _, hub := range n.Hubs {
		tasks = append(tasks, precomputeTask{node: n, u: hub, hub: true})
	}
	for _, m := range n.LeafMembers() {
		tasks = append(tasks, precomputeTask{node: n, u: m})
	}
	return tasks
}

// withSubgraphs extracts from root graph g, once per tree node, the
// virtual subgraph the tasks of that node run on — and their hub mask —
// and hands them to the tasks, one ppr.Run task per node on `workers`
// workers (0 = GOMAXPROCS; 1 extracts serially). The tasks of one node
// must be adjacent, as nodeTasks lists them. The subgraphs live only as
// long as the tasks: a hierarchy keeps none.
func withSubgraphs(g *graph.Graph, tasks []precomputeTask, workers int) {
	var starts []int // each node's first task
	for i := range tasks {
		if i == 0 || tasks[i].node != tasks[i-1].node {
			starts = append(starts, i)
		}
	}
	starts = append(starts, len(tasks))
	ppr.Run(len(starts)-1, workers, func(_ *ppr.Scratch, k int) error {
		group := tasks[starts[k]:starts[k+1]]
		n := group[0].node
		sub := graph.VirtualSubgraph(g, n.Members())
		sub.G.BuildReverse() // the skeleton kernels read in-edges
		var isHub []bool
		if len(n.Hubs) > 0 {
			isHub = make([]bool, sub.G.NumNodes())
			for _, x := range n.Hubs {
				isHub[sub.Local(x)] = true
			}
		}
		for i := range group {
			group[i].sub = sub
			if group[i].hub {
				group[i].isHub = isHub
			}
		}
		return nil
	})
}

// runTasks executes independent pre-computation tasks on ppr.Run's
// pool, each worker reusing one ppr.Scratch across its tasks. A task
// writes only its own result slot; the section maps are written here,
// in task order, after the pool drains. On error the maps are left
// untouched. It returns the summed task time and kernel stats.
func (s *Store) runTasks(tasks []precomputeTask, workers int) (time.Duration, ppr.KernelStats, error) {
	type result struct {
		vec, skel sparse.Packed // skel: hub tasks only
		took      time.Duration
	}
	out := make([]result, len(tasks))
	kstats, err := ppr.Run(len(tasks), workers, func(sc *ppr.Scratch, i int) error {
		t0 := time.Now()
		r := &out[i]
		var err error
		if t := tasks[i]; t.hub {
			r.vec, r.skel, err = s.computeHub(t, sc)
		} else {
			r.vec, err = s.computeLeaf(t, sc)
		}
		r.took = time.Since(t0)
		return err
	})
	if err != nil {
		return 0, kstats, err
	}
	var taskTime time.Duration
	for i, t := range tasks {
		r := out[i]
		taskTime += r.took
		if t.hub {
			s.HubPartial[t.u] = r.vec
			s.Skeleton[t.u] = r.skel
		} else {
			s.LeafPPV[t.u] = r.vec
		}
	}
	return taskTime, kstats, nil
}

// computeHub produces hub t.u's adjusted partial P_h = p_h − α·x_h and
// its skeleton vector, both in global id space. The kernel entries
// alias the scratch, so each vector is drained into packed form before
// the scratch's next use.
func (s *Store) computeHub(t precomputeTask, sc *ppr.Scratch) (adjusted, skeleton sparse.Packed, err error) {
	sub := t.sub
	g, lh := sub.G, sub.Local(t.u)
	ents, err := sc.PartialEntries(g, lh, t.isHub, s.Params)
	if err != nil {
		return sparse.Packed{}, sparse.Packed{}, fmt.Errorf("core: partial of hub %d: %w", t.u, err)
	}
	// Remap local→global in place (the entry buffer is scratch-owned and
	// drained by PackEntries before the scratch's next kernel call).
	j := 0
	for _, e := range ents {
		if e.ID == lh {
			continue // the α·x_h adjustment removes the zero-length tour
		}
		ents[j] = sparse.Entry{ID: sub.Parent(e.ID), Score: e.Score}
		j++
	}
	adjusted, err = sparse.PackEntries(ents[:j])
	if err != nil {
		return sparse.Packed{}, sparse.Packed{}, fmt.Errorf("core: partial of hub %d: %w", t.u, err)
	}
	ents, err = sc.SkeletonEntries(g, lh, s.Params)
	if err != nil {
		return sparse.Packed{}, sparse.Packed{}, fmt.Errorf("core: skeleton of hub %d: %w", t.u, err)
	}
	for i, e := range ents {
		ents[i] = sparse.Entry{ID: sub.Parent(e.ID), Score: e.Score}
	}
	skeleton, err = sparse.PackEntries(ents)
	if err != nil {
		return sparse.Packed{}, sparse.Packed{}, fmt.Errorf("core: skeleton of hub %d: %w", t.u, err)
	}
	return adjusted, skeleton, nil
}

// computeLeaf produces the leaf-level local PPV of non-hub node t.u in
// global id space.
func (s *Store) computeLeaf(t precomputeTask, sc *ppr.Scratch) (sparse.Packed, error) {
	sub := t.sub
	ents, err := sc.PartialEntries(sub.G, sub.Local(t.u), nil, s.Params)
	if err != nil {
		return sparse.Packed{}, fmt.Errorf("core: leaf PPV of %d: %w", t.u, err)
	}
	for i, e := range ents {
		ents[i] = sparse.Entry{ID: sub.Parent(e.ID), Score: e.Score}
	}
	globalP, err := sparse.PackEntries(ents)
	if err != nil {
		return sparse.Packed{}, fmt.Errorf("core: leaf PPV of %d: %w", t.u, err)
	}
	return globalP, nil
}

// Query constructs the exact PPV of u centrally (HGPA on one machine,
// §6.2.9) — or, on a slice from Split or LoadShard, that slice's
// additive share of it (Algorithm 1 of the paper, with the skeleton
// hub-entry term included so the shares stay exact; see the package
// comment). The fold runs through a pooled dense accumulator — no
// per-entry hashing, no intermediate maps — and drains once into the
// map Vector the public API promises.
func (s *Store) Query(u int32) (sparse.Vector, error) {
	return serve(s, s.own, u, nil, (*sparse.Accumulator).Vector)
}

// QueryPacked is Query draining into the columnar representation —
// the form the serving layer encodes straight onto the wire.
func (s *Store) QueryPacked(u int32) (sparse.Packed, error) {
	return serve(s, s.own, u, nil, (*sparse.Accumulator).Packed)
}

// QueryTopK returns the k highest-scoring nodes of u's exact PPV (of a
// slice's share, on a slice) — the common application-facing call
// (recommendation, link prediction). The top-k selection runs straight
// off the accumulator: no map, no full sort.
func (s *Store) QueryTopK(u int32, k int) ([]sparse.Entry, error) {
	return serve(s, s.own, u, nil, drainTopK(k))
}

// QuerySet constructs the exact PPV of a preference node set by
// linearity (on a slice, that slice's share; the slices' shares sum to
// the whole store's answer, still in one round). All members fold into
// one shared accumulator — no per-member intermediate vectors.
func (s *Store) QuerySet(p Preference) (sparse.Vector, error) {
	return serve(s, s.own, 0, &p, (*sparse.Accumulator).Vector)
}

// QuerySetPacked is QuerySet draining into the columnar form the wire
// protocol encodes directly.
func (s *Store) QuerySetPacked(p Preference) (sparse.Packed, error) {
	return serve(s, s.own, 0, &p, (*sparse.Accumulator).Packed)
}

// QueryWork returns the number of sparse-vector entries the store (or
// slice) folds to answer a query for u — a deterministic proxy for
// per-machine compute that is immune to scheduling noise. The paper's
// load-balance claim (§4.4) is that the MAX of this quantity across
// machines shrinks as 1/machines; see the fig10 experiment. It runs the
// query's own fold, so it fails exactly where Query does: a vector the
// fold needs but the store lacks is ErrMissingVector, not less work.
func (s *Store) QueryWork(u int32) (int64, error) {
	w := &workCounter{Store: s}
	_, err := serve(w, s.own, u, nil, func(*sparse.Accumulator) struct{} { return struct{}{} })
	return w.work, err
}

// workCounter is a Store as vectorSource that counts what the fold
// reads: one skeleton lookup per path hub, and every entry of each
// vector it fetches (plus the x_h entry a partial adds).
type workCounter struct {
	*Store
	work int64
}

func (w *workCounter) pathHubs(u int32, own *owner, row *planRow) (planRow, error) {
	r, err := w.Store.pathHubs(u, own, row)
	w.work += int64(len(r.hubs))
	return r, err
}

func (w *workCounter) partial(h int32) (sparse.Packed, error) {
	p, err := w.Store.partial(h)
	w.work += int64(p.Len()) + 1
	return p, err
}

func (w *workCounter) leaf(u int32) (sparse.Packed, error) {
	v, err := w.Store.leaf(u)
	w.work += int64(v.Len())
	return v, err
}

// HubCount returns the number of hubs whose vectors the store holds.
func (s *Store) HubCount() int { return len(s.HubPartial) }

// LeafCount returns the number of leaf vectors the store holds.
func (s *Store) LeafCount() int { return len(s.LeafPPV) }

// The in-memory vectorSource: no pinning (a Store snapshot is immutable
// while served), and a path walk that reads s_u(h) from the skeleton
// section — one binary search per admitted hub — into the scratch row.

func (s *Store) acquire() error { return nil }

func (s *Store) release() {}

func (s *Store) numNodes() int { return s.H.G.NumNodes() }

func (s *Store) alpha() float64 { return s.Params.Alpha }

func (s *Store) isHub(u int32) bool { return s.H.IsHub(u) }

func (s *Store) pathHubs(u int32, own *owner, row *planRow) (planRow, error) {
	row.hubs, row.s = row.hubs[:0], row.s[:0]
	for _, node := range s.H.Path(u) {
		for _, h := range node.Hubs {
			if own.hub(h) {
				skel, ok := s.Skeleton[h]
				if !ok {
					return planRow{}, missingVector(secSkeleton, h)
				}
				row.hubs = append(row.hubs, h)
				row.s = append(row.s, skel.Get(u))
			}
		}
	}
	return *row, nil
}

func (s *Store) partial(h int32) (sparse.Packed, error) {
	return lookup(s.HubPartial, secHubPartial, h)
}

func (s *Store) leaf(u int32) (sparse.Packed, error) { return lookup(s.LeafPPV, secLeafPPV, u) }

// lookup reads one vector of an in-memory section.
func lookup(m map[int32]sparse.Packed, sec int8, key int32) (sparse.Packed, error) {
	v, ok := m[key]
	if !ok {
		return sparse.Packed{}, missingVector(sec, key)
	}
	return v, nil
}

// Truncate removes every stored entry with absolute value below min,
// producing the paper's adapted method HGPA_ad (§6.2.9, min = 1e-4).
// It returns the number of entries dropped.
func (s *Store) Truncate(min float64) int {
	dropped := 0
	for _, m := range []map[int32]sparse.Packed{s.HubPartial, s.Skeleton, s.LeafPPV} {
		for key, v := range m {
			t, d := v.Truncated(min)
			if d > 0 {
				m[key] = t
				dropped += d
			}
		}
	}
	return dropped
}

// Clone copies the store's section maps (useful before Truncate); the
// immutable packed vectors themselves are shared, so this is cheap even
// for large pre-computations.
func (s *Store) Clone() *Store {
	c := &Store{
		H:          s.H,
		Params:     s.Params,
		HubPartial: make(map[int32]sparse.Packed, len(s.HubPartial)),
		Skeleton:   make(map[int32]sparse.Packed, len(s.Skeleton)),
		LeafPPV:    make(map[int32]sparse.Packed, len(s.LeafPPV)),
		own:        s.own,
	}
	// The packed vectors are immutable (Truncate swaps in new values, it
	// never edits arrays in place), so the clone shares them: only the
	// maps are fresh.
	for k, v := range s.HubPartial {
		c.HubPartial[k] = v
	}
	for k, v := range s.Skeleton {
		c.Skeleton[k] = v
	}
	for k, v := range s.LeafPPV {
		c.LeafPPV[k] = v
	}
	return c
}

// SpaceBytes reports the space of all stored vectors — the space
// metric of §6.2.2/§6.2.4, and on a slice the per-machine space of
// §6.2.3 (no redundancy across machines). Each vector counts
// sparse.SpaceBytes, the one space measure every backend and baseline
// uses; the wire size of a share is a separate measure.
func (s *Store) SpaceBytes() int64 {
	var total int64
	for _, m := range []map[int32]sparse.Packed{s.HubPartial, s.Skeleton, s.LeafPPV} {
		for _, v := range m {
			total += sparse.SpaceBytes(v.Len())
		}
	}
	return total
}

// Stats summarizes the store for experiment reports.
type Stats struct {
	Hubs, Leaves             int
	PartialEntries           int64
	SkeletonEntries          int64
	LeafEntries              int64
	Bytes                    int64
	Levels, LeafSubgraphs    int
	TotalNodes, GraphNodes   int
	GraphEdges, TotalTreeHub int
}

// Stats returns summary statistics.
func (s *Store) Stats() Stats {
	st := Stats{
		Hubs:          len(s.HubPartial),
		Leaves:        len(s.LeafPPV),
		Bytes:         s.SpaceBytes(),
		Levels:        s.H.Depth(),
		LeafSubgraphs: len(s.H.Leaves()),
		TotalNodes:    len(s.H.Nodes()),
		GraphNodes:    s.H.G.NumNodes(),
		GraphEdges:    s.H.G.NumEdges(),
		TotalTreeHub:  s.H.TotalHubs(),
	}
	for _, v := range s.HubPartial {
		st.PartialEntries += int64(v.Len())
	}
	for _, v := range s.Skeleton {
		st.SkeletonEntries += int64(v.Len())
	}
	for _, v := range s.LeafPPV {
		st.LeafEntries += int64(v.Len())
	}
	return st
}

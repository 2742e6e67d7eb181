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
	"slices"
	"time"

	"exactppr/internal/graph"
	"exactppr/internal/hierarchy"
	"exactppr/internal/ppr"
	"exactppr/internal/sparse"
)

// Store holds the complete HGPA pre-computation for a hierarchy — or,
// on a slice from Split or LoadShard, one machine's part of it. Each
// section is one Table, keyed by node id: two arenas holding all of
// the section's vectors end to end, in key order, plus a dense offset
// index. A store never writes a table it has published: ApplyUpdates
// and Truncate build fresh tables, so a served snapshot is immutable.
type Store struct {
	H      *hierarchy.Hierarchy
	Params ppr.Params

	// HubPartial holds, at hub h, the ADJUSTED partial vector
	// P_h = p_h − α·x_h of h, computed within h's home subgraph w.r.t.
	// that subgraph's hub set, in global id space.
	HubPartial Table
	// Skeleton holds, at hub h, s_·(h): the local PPV value at h for
	// every source w in h's home subgraph, in global id space.
	Skeleton Table
	// LeafPPV holds, at non-hub node u, the local PPV of u w.r.t. its
	// leaf-level virtual subgraph, in global id space.
	LeafPPV Table

	// own is the machine slice a shard-local store holds (see Split and
	// LoadShard): its sections carry only the vectors own admits. Nil
	// for a whole store.
	own *owner
	// history fingerprints the batches the store has absorbed since it
	// was built or loaded: 0 then, and each batch that changes an edge
	// folds its effect in (nextHistory). Copies of one store, or its
	// slices, at the same history and graph epoch have absorbed the
	// same edge changes, even where a retried batch found one of them
	// already applied.
	history uint64
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
	s := &Store{H: h, Params: params}
	taskTime, kstats, err := s.runTasks(nil, tasks, workers)
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

// taskResult is what one precomputeTask produced.
type taskResult struct {
	vec, skel sparse.Packed // skel: hub tasks only
	took      time.Duration
}

// runTasks executes independent pre-computation tasks on ppr.Run's
// pool, each worker reusing one ppr.Scratch across its tasks. A task
// writes only its own result slot; once the pool drains, the receiver's
// sections are set to the merge of base's vectors (none when base is
// nil) and the results (setSections). On error the receiver is left
// untouched. It returns the summed task time and kernel stats.
func (s *Store) runTasks(base *Store, tasks []precomputeTask, workers int) (time.Duration, ppr.KernelStats, error) {
	out := make([]taskResult, len(tasks))
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
	for _, r := range out {
		taskTime += r.took
	}
	if err := s.setSections(base, tasks, out); err != nil {
		return 0, kstats, err
	}
	return taskTime, kstats, nil
}

// setSections sets s's sections to fresh tables, one key-ordered merge
// each: a key a task computed holds the task's vector, and every other
// key base's vector (none when base is nil), except a leaf PPV at a key
// s.H holds as a hub — a promoted node's stale leaf. A node id is a hub
// or a leaf in s.H, never both, so each task fills the sections of its
// kind and clears the others at its key.
func (s *Store) setSections(base *Store, tasks []precomputeTask, out []taskResult) error {
	if base == nil {
		base = &Store{}
	}
	n := s.H.G.NumNodes()
	byKey := make([]int32, n) // 1 + the index of the task computing each key; 0 for none
	for i, t := range tasks {
		byKey[t.u] = int32(i) + 1
	}
	merge := func(old Table, hub bool, pick func(taskResult) sparse.Packed) (Table, error) {
		return buildTable(n, func(k int32) (sparse.Packed, bool) {
			if i := byKey[k] - 1; i >= 0 {
				return pick(out[i]), tasks[i].hub == hub
			}
			if !hub && s.H.IsHub(k) {
				return sparse.Packed{}, false
			}
			return old.Get(k)
		})
	}
	vec := func(r taskResult) sparse.Packed { return r.vec }
	skel := func(r taskResult) sparse.Packed { return r.skel }
	hp, err := merge(base.HubPartial, true, vec)
	if err != nil {
		return err
	}
	sk, err := merge(base.Skeleton, true, skel)
	if err != nil {
		return err
	}
	lf, err := merge(base.LeafPPV, false, vec)
	if err != nil {
		return err
	}
	s.HubPartial, s.Skeleton, s.LeafPPV = hp, sk, lf
	return nil
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
func (s *Store) HubCount() int { return s.HubPartial.Len() }

// LeafCount returns the number of leaf vectors the store holds.
func (s *Store) LeafCount() int { return s.LeafPPV.Len() }

// The in-memory vectorSource: no pinning (a Store snapshot is immutable
// while served), and a path walk that reads s_u(h) from the skeleton
// section — one binary search per admitted hub — into the scratch row.

func (s *Store) acquire() error { return nil }

func (s *Store) release() {}

func (s *Store) numNodes() int { return s.H.G.NumNodes() }

func (s *Store) alpha() float64 { return s.Params.Alpha }

func (s *Store) isHub(u int32) bool { return s.H.IsHub(u) }

// pathHubs walks Path(u) up from Home(u), each node's hubs in reverse,
// straight into the scratch row, and reverses the row once: fold order
// without a path slice.
func (s *Store) pathHubs(u int32, own *owner, row *planRow) (planRow, error) {
	row.hubs, row.s = row.hubs[:0], row.s[:0]
	for node := s.H.Home(u); node != nil; node = node.Parent {
		for i := len(node.Hubs) - 1; i >= 0; i-- {
			h := node.Hubs[i]
			if !own.hub(h) {
				continue
			}
			skel, ok := s.Skeleton.Get(h)
			if !ok {
				return planRow{}, missingVector(secSkeleton, h)
			}
			row.hubs = append(row.hubs, h)
			row.s = append(row.s, skel.Get(u))
		}
	}
	slices.Reverse(row.hubs)
	slices.Reverse(row.s)
	return *row, nil
}

func (s *Store) partial(h int32) (sparse.Packed, error) {
	return lookup(&s.HubPartial, secHubPartial, h)
}

func (s *Store) leaf(u int32) (sparse.Packed, error) { return lookup(&s.LeafPPV, secLeafPPV, u) }

// lookup reads one vector of an in-memory section.
func lookup(t *Table, sec int8, key int32) (sparse.Packed, error) {
	v, ok := t.Get(key)
	if !ok {
		return sparse.Packed{}, missingVector(sec, key)
	}
	return v, nil
}

// Truncate removes every stored entry with absolute value below min,
// producing the paper's adapted method HGPA_ad (§6.2.9, min = 1e-4).
// It returns the number of entries dropped. Each section that loses an
// entry gets a fresh table; the old one is left as it was, so a Clone
// taken before keeps every entry.
func (s *Store) Truncate(min float64) int {
	dropped := 0
	for _, t := range []*Table{&s.HubPartial, &s.Skeleton, &s.LeafPPV} {
		n := t.keys()
		kept := make([]sparse.Packed, n)
		d := 0
		for k, v := range t.All() {
			var dk int
			kept[k], dk = v.Truncated(min)
			d += dk
		}
		if d == 0 {
			continue
		}
		old := *t
		// Truncation only shrinks a section, so its offsets still fit.
		*t, _ = buildTable(n, func(k int32) (sparse.Packed, bool) {
			_, ok := old.Get(k)
			return kept[k], ok
		})
		dropped += d
	}
	return dropped
}

// Clone returns a store sharing s's tables (useful before Truncate):
// no store writes a table it holds, so the copy is cheap and neither
// store sees the other's later changes.
func (s *Store) Clone() *Store {
	c := *s
	return &c
}

// SpaceBytes reports the space of all stored vectors — the space
// metric of §6.2.2/§6.2.4, and on a slice the per-machine space of
// §6.2.3 (no redundancy across machines). Each vector counts
// sparse.SpaceBytes, the one space measure every backend and baseline
// uses; the wire size of a share is a separate measure.
func (s *Store) SpaceBytes() int64 {
	return s.HubPartial.spaceBytes() + s.Skeleton.spaceBytes() + s.LeafPPV.spaceBytes()
}

// ResidentBytes reports the heap the store keeps, from capacities: its
// tables (offset indexes and arenas), its tree, its graph and, on a
// slice, the bits of the hubs it holds. A slice from Split shares the
// tree and graph with the store it came from, and counts them all the
// same: it is what a machine that keeps only the slice keeps.
func (s *Store) ResidentBytes() int64 {
	return s.HubPartial.residentBytes() + s.Skeleton.residentBytes() + s.LeafPPV.residentBytes() +
		s.H.ResidentBytes() + s.H.G.ResidentBytes() + s.own.residentBytes()
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
		Hubs:            s.HubPartial.Len(),
		Leaves:          s.LeafPPV.Len(),
		PartialEntries:  s.HubPartial.Entries(),
		SkeletonEntries: s.Skeleton.Entries(),
		LeafEntries:     s.LeafPPV.Entries(),
		Bytes:           s.SpaceBytes(),
		Levels:          s.H.Depth(),
		LeafSubgraphs:   len(s.H.Leaves()),
		TotalNodes:      len(s.H.Nodes()),
		GraphNodes:      s.H.G.NumNodes(),
		GraphEdges:      s.H.G.NumEdges(),
		TotalTreeHub:    s.H.TotalHubs(),
	}
	return st
}

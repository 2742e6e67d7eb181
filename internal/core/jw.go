package core

import (
	"fmt"
	"slices"

	"exactppr/internal/graph"
	"exactppr/internal/ppr"
	"exactppr/internal/sparse"
)

// JWStore is the brute-force extension of Jeh–Widom described in §2.3
// (PPV-JW): a FLAT hub set chosen by PageRank (not a separator), partial
// vectors pre-computed for every node, and skeleton vectors for every
// hub. It answers any query exactly, at the O(|V|²)-worst-case space the
// paper's partitioned algorithms exist to avoid — the space baseline of
// §3.2.
type JWStore struct {
	G      *graph.Graph
	Params ppr.Params
	Hubs   []int32 // sorted

	// Partial holds, at every node u, P_u for a hub (adjusted: the hub's
	// self entry removed) and p_u for a non-hub, in global id space.
	// Tables like the Store sections: written once, folded many times.
	Partial Table
	// Skeleton holds, at hub h, s_·(h): s_w(h) = r_w(h) for every node w.
	Skeleton Table

	hubMask []bool
}

// PrecomputeJW builds the PPV-JW baseline with the hubCount top-PageRank
// nodes as hubs: one ppr.Run task per node on `workers` (0 =
// GOMAXPROCS). A failing build returns the error of its lowest failing
// node.
func PrecomputeJW(g *graph.Graph, hubCount int, params ppr.Params, workers int) (*JWStore, error) {
	if err := params.ValidatePrecompute(); err != nil {
		return nil, err
	}
	if hubCount < 0 || hubCount > g.NumNodes() {
		return nil, fmt.Errorf("core: hubCount %d out of range", hubCount)
	}
	hubs, err := ppr.TopPageRank(g, hubCount, params)
	if err != nil {
		return nil, err
	}
	slices.Sort(hubs)
	s := &JWStore{
		G:       g,
		Params:  params,
		Hubs:    hubs,
		hubMask: make([]bool, g.NumNodes()),
	}
	for _, h := range hubs {
		s.hubMask[h] = true
	}
	g.BuildReverse()

	// Each task computes node u's vectors into its own slots (partial[u],
	// and skel at u's rank among the sorted hubs) on its worker's
	// scratch. The entries alias the scratch, so each vector is packed
	// before the next kernel call; a kernel's ids are unique, so
	// PackEntries cannot fail. The tables are built after the pool drains.
	partial := make([]sparse.Packed, g.NumNodes())
	skel := make([]sparse.Packed, len(hubs))
	_, err = ppr.Run(g.NumNodes(), workers, func(sc *ppr.Scratch, i int) error {
		u := int32(i)
		ents, err := sc.PartialEntries(g, u, s.hubMask, s.Params)
		if err != nil {
			return err
		}
		if !s.hubMask[u] {
			partial[u], _ = sparse.PackEntries(ents)
			return nil
		}
		// Store P_u = p_u − α·x_u.
		ents = slices.DeleteFunc(ents, func(e sparse.Entry) bool { return e.ID == u })
		partial[u], _ = sparse.PackEntries(ents)
		if ents, err = sc.SkeletonEntries(g, u, s.Params); err != nil {
			return err
		}
		k, _ := slices.BinarySearch(hubs, u)
		skel[k], _ = sparse.PackEntries(ents)
		return nil
	})
	if err != nil {
		return nil, err
	}
	n := g.NumNodes()
	if s.Partial, err = buildTable(n, func(u int32) (sparse.Packed, bool) { return partial[u], true }); err != nil {
		return nil, err
	}
	s.Skeleton, err = buildTable(n, func(h int32) (sparse.Packed, bool) {
		k, ok := slices.BinarySearch(hubs, h)
		if !ok {
			return sparse.Packed{}, false
		}
		return skel[k], true
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Query constructs the exact PPV of u from the flat decomposition — the
// same identity and fold as Store.Query with a single "level".
func (s *JWStore) Query(u int32) (sparse.Vector, error) {
	return serve(s, nil, u, nil, (*sparse.Accumulator).Vector)
}

// The JW vectorSource: every hub is on every path, and a non-hub's base
// case is its (unadjusted) partial vector p_u.

func (s *JWStore) acquire() error { return nil }

func (s *JWStore) release() {}

func (s *JWStore) numNodes() int { return s.G.NumNodes() }

func (s *JWStore) alpha() float64 { return s.Params.Alpha }

func (s *JWStore) isHub(u int32) bool { return s.hubMask[u] }

func (s *JWStore) pathHubs(u int32, _ *owner, row *planRow) (planRow, error) {
	row.hubs, row.s = row.hubs[:0], row.s[:0]
	for _, h := range s.Hubs {
		skel, err := lookup(&s.Skeleton, secSkeleton, h)
		if err != nil {
			return planRow{}, err
		}
		row.hubs = append(row.hubs, h)
		row.s = append(row.s, skel.Get(u))
	}
	return *row, nil
}

func (s *JWStore) partial(h int32) (sparse.Packed, error) {
	return lookup(&s.Partial, secHubPartial, h)
}

func (s *JWStore) leaf(u int32) (sparse.Packed, error) { return lookup(&s.Partial, secLeafPPV, u) }

// SpaceBytes reports the space of all stored vectors, in
// Store.SpaceBytes's measure (sparse.SpaceBytes).
func (s *JWStore) SpaceBytes() int64 { return s.Partial.spaceBytes() + s.Skeleton.spaceBytes() }

package core

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"

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

	// Partial[u] = P_u for hubs (adjusted) and p_u for non-hubs, global
	// id space. Kept adjusted uniformly: self entry of hub removed.
	// Packed like the Store sections: written once, folded many times.
	Partial map[int32]sparse.Packed
	// Skeleton[h](w) = s_w(h) = r_w(h) for every node w.
	Skeleton map[int32]sparse.Packed

	hubMask []bool
}

// PrecomputeJW builds the PPV-JW baseline with the hubCount top-PageRank
// nodes as hubs.
func PrecomputeJW(g *graph.Graph, hubCount int, params ppr.Params, workers int) (*JWStore, error) {
	if err := params.ValidatePrecompute(); err != nil {
		return nil, err
	}
	if hubCount < 0 || hubCount > g.NumNodes() {
		return nil, fmt.Errorf("core: hubCount %d out of range", hubCount)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	hubs, err := ppr.TopPageRank(g, hubCount, params)
	if err != nil {
		return nil, err
	}
	sort.Slice(hubs, func(i, j int) bool { return hubs[i] < hubs[j] })
	s := &JWStore{
		G:        g,
		Params:   params,
		Hubs:     hubs,
		Partial:  make(map[int32]sparse.Packed, g.NumNodes()),
		Skeleton: make(map[int32]sparse.Packed, len(hubs)),
		hubMask:  make([]bool, g.NumNodes()),
	}
	for _, h := range hubs {
		s.hubMask[h] = true
	}
	g.BuildReverse()

	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
		ch       = make(chan int32)
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	// Each worker reuses one kernel scratch for all its vectors. The
	// entries alias it, so each vector is packed before the next kernel
	// call. A kernel's ids are unique, so PackEntries cannot fail.
	worker := func() {
		defer wg.Done()
		var sc ppr.Scratch
		for u := range ch {
			ents, err := sc.PartialEntries(g, u, s.hubMask, s.Params)
			if err != nil {
				fail(err)
				continue
			}
			hub := s.hubMask[u]
			if hub {
				// Store P_u = p_u − α·x_u.
				ents = slices.DeleteFunc(ents, func(e sparse.Entry) bool { return e.ID == u })
			}
			partial, _ := sparse.PackEntries(ents)
			var skel sparse.Packed
			if hub {
				if ents, err = sc.SkeletonEntries(g, u, s.Params); err != nil {
					fail(err)
					continue
				}
				skel, _ = sparse.PackEntries(ents)
			}
			mu.Lock()
			s.Partial[u] = partial
			if hub {
				s.Skeleton[u] = skel
			}
			mu.Unlock()
		}
	}
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go worker()
	}
	for u := int32(0); u < int32(g.NumNodes()); u++ {
		ch <- u
	}
	close(ch)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
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
		skel, err := lookup(s.Skeleton, secSkeleton, h)
		if err != nil {
			return planRow{}, err
		}
		row.hubs = append(row.hubs, h)
		row.s = append(row.s, skel.Get(u))
	}
	return *row, nil
}

func (s *JWStore) partial(h int32) (sparse.Packed, error) { return lookup(s.Partial, secHubPartial, h) }

func (s *JWStore) leaf(u int32) (sparse.Packed, error) { return lookup(s.Partial, secLeafPPV, u) }

// SpaceBytes reports the encoded size of all stored vectors.
func (s *JWStore) SpaceBytes() int64 {
	var total int64
	for _, v := range s.Partial {
		total += int64(sparse.EncodedSizePacked(v))
	}
	for _, v := range s.Skeleton {
		total += int64(sparse.EncodedSizePacked(v))
	}
	return total
}

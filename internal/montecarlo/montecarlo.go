// Package montecarlo implements the random-walk PPV estimator of Bahmani,
// Chakrabarti & Xin (KDD 2011) — the paper's reference [5] for distributed
// APPROXIMATE personalized PageRank and the natural foil for the exact
// algorithms: it also needs just one merge round when walks are sharded
// across machines, but its accuracy grows only as 1/√walks and carries no
// error bound, which is precisely the gap the paper's exact methods close.
//
// The estimator simulates independent α-terminated random walks from the
// query node; the PPV estimate at v is the fraction of walks that END at
// v (the standard "fingerprint" interpretation of the random-surfer
// model, matching the inverse P-distance semantics of Eq. 2 — walks
// absorb at dangling nodes and virtual sinks exactly like the rest of
// this module).
package montecarlo

import (
	"fmt"
	"math/rand"
	"slices"

	"exactppr/internal/graph"
	"exactppr/internal/ppr"
	"exactppr/internal/sparse"
)

// Engine runs Monte Carlo PPV estimates over one graph.
type Engine struct {
	g *graph.Graph
}

// NewEngine returns an estimator for g.
func NewEngine(g *graph.Graph) (*Engine, error) {
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("montecarlo: empty graph")
	}
	return &Engine{g: g}, nil
}

// Estimate runs `walks` α-terminated random walks from q and returns the
// endpoint distribution. Deterministic for a seed.
func (e *Engine) Estimate(q int32, walks int, p ppr.Params, seed int64) (sparse.Vector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if q < 0 || int(q) >= e.g.NumNodes() || e.g.IsVirtual(q) {
		return nil, fmt.Errorf("montecarlo: query %d invalid", q)
	}
	if walks < 1 {
		return nil, fmt.Errorf("montecarlo: walks = %d, want ≥ 1", walks)
	}
	counts := make(map[int32]int, 256)
	rng := rand.New(rand.NewSource(seed))
	e.runWalks(q, walks, p, rng, counts)
	v := sparse.New(len(counts))
	for node, c := range counts {
		v.Set(node, float64(c)/float64(walks))
	}
	return v, nil
}

// runWalks simulates walks and accumulates endpoint counts; returns how
// many walks ended at a node (the rest were absorbed by dangling nodes or
// virtual sinks — their mass vanishes, as in Eq. 2).
func (e *Engine) runWalks(q int32, walks int, p ppr.Params, rng *rand.Rand, counts map[int32]int) int {
	terminated := 0
	for w := 0; w < walks; w++ {
		cur := q
		for {
			if rng.Float64() < p.Alpha {
				counts[cur]++
				terminated++
				break
			}
			ow := e.g.OutWeight(cur)
			if ow == 0 {
				break // dangling: the walk dies without an endpoint
			}
			// Pick an out-edge uniformly over the ORIGINAL out-degree;
			// indexes beyond the stored edges correspond to absorbed
			// (virtual-sink) probability mass.
			pick := rng.Intn(ow)
			out := e.g.Out(cur)
			if pick >= len(out) {
				break // absorbed by the sink share
			}
			next := out[pick]
			if e.g.IsVirtual(next) {
				break
			}
			cur = next
		}
	}
	return terminated
}

// ShardedStats reports a sharded (distributed-style) estimate.
type ShardedStats struct {
	Result sparse.Vector
	// BytesMerged is the total wire size (sparse.EncodedSizeIDs) of the
	// per-machine count vectors the coordinator would receive — one
	// round, like GPA/HGPA, but approximate.
	BytesMerged int64
}

// EstimateSharded splits the walk budget across `machines` independent
// workers (each with its own RNG stream, run as ppr.Run tasks on
// GOMAXPROCS goroutines), merges their endpoint counts,
// and accounts the merge bytes. The merged result is identical in
// distribution to a single-machine run with the same total walk count.
func (e *Engine) EstimateSharded(q int32, walks, machines int, p ppr.Params, seed int64) (*ShardedStats, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if machines < 1 {
		return nil, fmt.Errorf("montecarlo: machines = %d", machines)
	}
	if q < 0 || int(q) >= e.g.NumNodes() || e.g.IsVirtual(q) {
		return nil, fmt.Errorf("montecarlo: query %d invalid", q)
	}
	if walks < machines {
		return nil, fmt.Errorf("montecarlo: %d walks over %d machines", walks, machines)
	}
	results := make([]map[int32]int, machines)
	ppr.Run(machines, 0, func(_ *ppr.Scratch, m int) error {
		results[m] = e.machineCounts(q, walks, machines, m, p, seed)
		return nil
	})

	stats := &ShardedStats{Result: sparse.New(256)}
	for _, counts := range results {
		// A machine's share is its counts as a sorted vector; its wire
		// size depends on the ids alone.
		ids := make([]int32, 0, len(counts))
		for node, c := range counts {
			stats.Result.Add(node, float64(c)/float64(walks))
			ids = append(ids, node)
		}
		slices.Sort(ids)
		stats.BytesMerged += int64(sparse.EncodedSizeIDs(ids))
	}
	return stats, nil
}

// machineCounts runs machine m's part of a sharded estimate — its share
// of the walks, on an RNG stream of its own — and returns its endpoint
// counts.
func (e *Engine) machineCounts(q int32, walks, machines, m int, p ppr.Params, seed int64) map[int32]int {
	n := walks / machines
	if m < walks%machines {
		n++
	}
	counts := make(map[int32]int, 256)
	rng := rand.New(rand.NewSource(seed + int64(m)*1_000_003))
	e.runWalks(q, n, p, rng, counts)
	return counts
}

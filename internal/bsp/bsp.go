// Package bsp implements the paper's distributed baselines (§6.2.8): a
// Pregel-like vertex-centric engine ("Pregel+") and a Blogel-like
// block-centric engine, both running the power-iteration PPV computation.
// The point the paper makes — and these engines reproduce — is that BSP
// power iteration needs one message exchange per iteration until
// convergence, so its communication grows with iterations, edges, and
// machine count, while GPA/HGPA need exactly one round.
//
// Workers run concurrently inside the process; messages between vertices
// on different workers are combined per (worker, target) pair — as
// Pregel+ and Blogel's sum combiners do — and accounted as 12 bytes each
// (4-byte target id + 8-byte float), mirroring the sparse wire format
// used by the cluster package so communication numbers are comparable.
package bsp

import (
	"fmt"
	"math"
	"time"

	"exactppr/internal/graph"
	"exactppr/internal/partition"
	"exactppr/internal/ppr"
	"exactppr/internal/sparse"
)

// Mode selects the engine flavour.
type Mode int

const (
	// VertexCentric hashes vertices across workers (Pregel+-style) and
	// performs one global iteration per superstep.
	VertexCentric Mode = iota
	// BlockCentric places partitioned blocks on workers (Blogel-style)
	// and iterates each block to LOCAL convergence within a superstep,
	// which cuts both supersteps and cross-worker messages.
	BlockCentric
)

func (m Mode) String() string {
	if m == BlockCentric {
		return "blogel"
	}
	return "pregel+"
}

const bytesPerMessage = 12 // 4-byte target + 8-byte float64

// Engine is a BSP runner for one graph over a fixed worker layout.
type Engine struct {
	g       *graph.Graph
	mode    Mode
	workers int
	owner   []int32   // vertex → worker
	local   [][]int32 // worker → its vertices
}

// NewEngine builds an engine. For BlockCentric the graph is partitioned
// into `workers` blocks with the multilevel partitioner (seed fixed for
// determinism); for VertexCentric vertices are hash-distributed, as in
// Pregel+'s default layout.
func NewEngine(g *graph.Graph, mode Mode, workers int) (*Engine, error) {
	if workers < 1 {
		return nil, fmt.Errorf("bsp: workers = %d", workers)
	}
	n := g.NumNodes()
	if n == 0 {
		return nil, fmt.Errorf("bsp: empty graph")
	}
	e := &Engine{g: g, mode: mode, workers: workers}
	e.owner = make([]int32, n)
	switch mode {
	case VertexCentric:
		for v := 0; v < n; v++ {
			e.owner[v] = int32(v % workers)
		}
	case BlockCentric:
		if workers > 1 {
			parts, err := partition.Partition(g, workers, partition.Options{Seed: 42})
			if err != nil {
				return nil, err
			}
			e.owner = parts
		}
		g.BuildReverse() // block steps pull along in-edges
	default:
		return nil, fmt.Errorf("bsp: unknown mode %d", mode)
	}
	e.local = make([][]int32, workers)
	for v := 0; v < n; v++ {
		e.local[e.owner[v]] = append(e.local[e.owner[v]], int32(v))
	}
	return e, nil
}

// Workers returns the engine's worker count.
func (e *Engine) Workers() int { return e.workers }

// Mode returns the engine flavour.
func (e *Engine) Mode() Mode { return e.mode }

// RunStats reports one PPV computation.
type RunStats struct {
	Result sparse.Vector
	// Supersteps is the number of global BSP rounds until convergence.
	Supersteps int
	// Messages counts combined cross-worker messages over the whole run.
	Messages int64
	// NetworkBytes = Messages × 12, the communication-cost metric.
	NetworkBytes int64
	// ComputeWall is the in-process compute time (all supersteps).
	ComputeWall time.Duration
}

// RunPPV computes the PPV of q by BSP power iteration:
//
//	r(v) = α·x_q(v) + (1−α)·Σ_{u→v} r(u)/OutWeight(u)
//
// Vertex mode performs exactly one Jacobi sweep per superstep; block mode
// solves each block to local convergence per superstep treating external
// messages as fixed boundary input. Both stop when the largest value
// change in a superstep is at most Eps, matching ppr.PowerIteration.
func (e *Engine) RunPPV(q int32, p ppr.Params) (*RunStats, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := e.g.NumNodes()
	if q < 0 || int(q) >= n || e.g.IsVirtual(q) {
		return nil, fmt.Errorf("bsp: query %d invalid", q)
	}
	start := time.Now()
	stats := &RunStats{}

	cur := make([]float64, n)   // value per vertex
	inbox := make([]float64, n) // Σ delivered messages per vertex
	out := make([]map[int32]float64, e.workers)

	maxSupersteps := p.MaxIter
	if maxSupersteps <= 0 {
		maxSupersteps = 10000
	}
	for step := 0; step < maxSupersteps; step++ {
		stats.Supersteps++
		deltas := make([]float64, e.workers)
		// One superstep: every worker computes at once (the caller is
		// one of them), and Run's return is the barrier.
		ppr.Run(e.workers, e.workers, func(_ *ppr.Scratch, w int) error {
			out[w] = make(map[int32]float64)
			if e.mode == BlockCentric {
				deltas[w] = e.blockStep(w, q, cur, inbox, out[w], p)
			} else {
				deltas[w] = e.vertexStep(w, q, cur, inbox, out[w], p)
			}
			return nil
		})

		// Barrier: deliver combined messages, counting boundary crossings.
		for i := range inbox {
			inbox[i] = 0
		}
		for w := 0; w < e.workers; w++ {
			for target, val := range out[w] {
				inbox[target] += val
				if e.owner[target] != int32(w) {
					stats.Messages++
				}
			}
		}

		maxDelta := 0.0
		for _, d := range deltas {
			if d > maxDelta {
				maxDelta = d
			}
		}
		if maxDelta <= p.Eps {
			break
		}
	}
	stats.NetworkBytes = stats.Messages * bytesPerMessage
	stats.ComputeWall = time.Since(start)
	res := sparse.New(256)
	for v := 0; v < n; v++ {
		if cur[v] != 0 && !e.g.IsVirtual(int32(v)) {
			res.Set(int32(v), cur[v])
		}
	}
	stats.Result = res
	return stats, nil
}

// vertexStep: one Jacobi sweep for worker w's vertices, then scatter
// cur(v)/OutWeight(v) along every out-edge (the combiner map merges).
func (e *Engine) vertexStep(w int, q int32, cur, inbox []float64, out map[int32]float64, p ppr.Params) float64 {
	var maxDelta float64
	for _, v := range e.local[w] {
		next := (1 - p.Alpha) * inbox[v]
		if v == q {
			next += p.Alpha
		}
		if d := math.Abs(next - cur[v]); d > maxDelta {
			maxDelta = d
		}
		cur[v] = next
	}
	for _, v := range e.local[w] {
		e.scatter(v, cur[v], out)
	}
	return maxDelta
}

// blockStep: solve worker w's block to local convergence, treating the
// external inbox as fixed, then scatter only boundary messages. Internal
// propagation happens in-memory, which is exactly Blogel's advantage.
func (e *Engine) blockStep(w int, q int32, cur, inbox []float64, out map[int32]float64, p ppr.Params) float64 {
	mine := e.local[w]
	var totalDelta float64
	for iter := 0; iter < 10000; iter++ {
		var localDelta float64
		for _, v := range mine {
			acc := inbox[v] // external contributions (pre-divided by deg)
			for _, u := range e.g.In(v) {
				if e.owner[u] == int32(w) && !e.g.IsVirtual(u) {
					if ow := e.g.OutWeight(u); ow > 0 {
						acc += cur[u] / float64(ow)
					}
				}
			}
			next := (1 - p.Alpha) * acc
			if v == q {
				next += p.Alpha
			}
			if d := math.Abs(next - cur[v]); d > localDelta {
				localDelta = d
			}
			cur[v] = next
		}
		if localDelta > totalDelta {
			totalDelta = localDelta
		}
		if localDelta <= p.Eps {
			break
		}
	}
	// Boundary scatter only: internal edges were handled in the solve.
	for _, v := range mine {
		if cur[v] == 0 {
			continue
		}
		ow := e.g.OutWeight(v)
		if ow == 0 {
			continue
		}
		share := cur[v] / float64(ow)
		for _, t := range e.g.Out(v) {
			if e.owner[t] != int32(w) && !e.g.IsVirtual(t) {
				out[t] += share
			}
		}
	}
	return totalDelta
}

// scatter sends v's value/OutWeight to every real out-neighbor.
func (e *Engine) scatter(v int32, val float64, out map[int32]float64) {
	if val == 0 {
		return
	}
	ow := e.g.OutWeight(v)
	if ow == 0 {
		return
	}
	share := val / float64(ow)
	for _, t := range e.g.Out(v) {
		if !e.g.IsVirtual(t) {
			out[t] += share
		}
	}
}

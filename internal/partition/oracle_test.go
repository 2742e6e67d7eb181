package partition

import (
	"sort"

	"exactppr/internal/graph"
)

// The pre-heap implementations of FM refinement and adjacency
// construction. They are the reference the production code must match
// exactly; see equiv_test.go.

// fmRefineScan is the original fmRefine, kept as the oracle the gain-heap
// version must match move for move. It picks each move's vertex by
// scanning all n vertices — O(n) per move, O(n²) per pass.
func fmRefineScan(g *ugraph, side []int8, minW, maxW int64) {
	n := g.numNodes()
	w := [2]int64{}
	for v := 0; v < n; v++ {
		w[side[v]] += int64(g.vwgt[v])
	}
	gain := make([]int64, n)
	computeGain := func(v int32) int64 {
		var ext, int_ int64
		nbrs, wts := g.neighbors(v)
		for i, nb := range nbrs {
			if side[nb] == side[v] {
				int_ += int64(wts[i])
			} else {
				ext += int64(wts[i])
			}
		}
		return ext - int_
	}
	for pass := 0; pass < refinePasses; pass++ {
		for v := int32(0); v < int32(n); v++ {
			gain[v] = computeGain(v)
		}
		locked := make([]bool, n)
		type move struct {
			v    int32
			gain int64
		}
		var moves []move
		var cum, bestCum int64
		bestIdx := -1
		// Bounded number of moves per pass keeps worst case near-linear.
		for step := 0; step < n; step++ {
			bestV := int32(-1)
			var bestG int64 = -(1 << 62)
			for v := int32(0); v < int32(n); v++ {
				if locked[v] || gain[v] <= -(1<<40) {
					continue
				}
				from := side[v]
				to := 1 - from
				if w[to]+int64(g.vwgt[v]) > maxW || w[from]-int64(g.vwgt[v]) < minW {
					continue
				}
				if gain[v] > bestG || (gain[v] == bestG && v < bestV) {
					bestV, bestG = v, gain[v]
				}
			}
			if bestV < 0 {
				break
			}
			// Apply the move.
			from := side[bestV]
			to := int8(1 - from)
			side[bestV] = to
			w[from] -= int64(g.vwgt[bestV])
			w[to] += int64(g.vwgt[bestV])
			locked[bestV] = true
			cum += bestG
			moves = append(moves, move{bestV, bestG})
			if cum > bestCum {
				bestCum = cum
				bestIdx = len(moves) - 1
			}
			// Update neighbor gains.
			nbrs, wts := g.neighbors(bestV)
			for i, nb := range nbrs {
				if locked[nb] {
					continue
				}
				if side[nb] == to {
					gain[nb] -= 2 * int64(wts[i])
				} else {
					gain[nb] += 2 * int64(wts[i])
				}
			}
			if len(moves) > 2*n/3+16 {
				break
			}
		}
		// Roll back moves after the best prefix.
		for i := len(moves) - 1; i > bestIdx; i-- {
			v := moves[i].v
			from := side[v]
			to := int8(1 - from)
			side[v] = to
			w[from] -= int64(g.vwgt[v])
			w[to] += int64(g.vwgt[v])
		}
		if bestCum <= 0 && bestIdx < 0 {
			break // no improvement found this pass
		}
	}
}

// undirectedViewMap is the original undirectedView, kept as an oracle: it
// dedupes vertex pairs through a map, then sorts every row with
// sortAdjSlice.
func undirectedViewMap(g *graph.Graph) *ugraph {
	n := g.NumNodes()
	type pair struct{ a, b int32 }
	w := make(map[pair]int32, g.NumEdges())
	for a := int32(0); a < int32(n); a++ {
		for _, b := range g.Out(a) {
			p := pair{a, b}
			if b < a {
				p = pair{b, a}
			}
			w[p]++
		}
	}
	deg := make([]int32, n+1)
	for p := range w {
		deg[p.a+1]++
		deg[p.b+1]++
	}
	for i := 0; i < n; i++ {
		deg[i+1] += deg[i]
	}
	adjncy := make([]int32, 2*len(w))
	adjwgt := make([]int32, 2*len(w))
	next := make([]int32, n)
	copy(next, deg[:n])
	for p, wt := range w {
		adjncy[next[p.a]] = p.b
		adjwgt[next[p.a]] = wt
		next[p.a]++
		adjncy[next[p.b]] = p.a
		adjwgt[next[p.b]] = wt
		next[p.b]++
	}
	vwgt := make([]int32, n)
	for i := range vwgt {
		vwgt[i] = 1
	}
	ug := &ugraph{xadj: deg, adjncy: adjncy, adjwgt: adjwgt, vwgt: vwgt}
	sortAdjSlice(ug)
	return ug
}

// sortAdjSlice is the original sortAdj, kept as an oracle: three slices
// and a sort.Slice per row.
func sortAdjSlice(u *ugraph) {
	for v := 0; v < u.numNodes(); v++ {
		lo, hi := u.xadj[v], u.xadj[v+1]
		idx := make([]int, hi-lo)
		for i := range idx {
			idx[i] = int(lo) + i
		}
		sort.Slice(idx, func(a, b int) bool { return u.adjncy[idx[a]] < u.adjncy[idx[b]] })
		nc := make([]int32, hi-lo)
		nw := make([]int32, hi-lo)
		for i, j := range idx {
			nc[i] = u.adjncy[j]
			nw[i] = u.adjwgt[j]
		}
		copy(u.adjncy[lo:hi], nc)
		copy(u.adjwgt[lo:hi], nw)
	}
}

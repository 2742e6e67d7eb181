package partition

import (
	"fmt"
	"math/rand"

	"exactppr/internal/graph"
	"exactppr/internal/matching"
)

// Options tunes the partitioner.
type Options struct {
	// Imbalance is the tolerated deviation from perfectly balanced part
	// weights (0.05 = 5%). Values ≤ 0 default to 0.1.
	Imbalance float64
	// Seed drives the deterministic RNG. The zero seed is fine.
	Seed int64
}

func (o Options) imbalance() float64 {
	if o.Imbalance <= 0 {
		return 0.1
	}
	return o.Imbalance
}

// Partition splits g into k parts of near-equal size via recursive
// multilevel bisection and returns a part id (0..k-1) per node.
func Partition(g *graph.Graph, k int, opts Options) ([]int32, error) {
	if k < 1 {
		return nil, fmt.Errorf("partition: k = %d, want ≥ 1", k)
	}
	n := g.NumNodes()
	if n == 0 {
		return nil, fmt.Errorf("partition: empty graph")
	}
	parts := make([]int32, n)
	if k == 1 {
		return parts, nil
	}
	if k > n {
		return nil, fmt.Errorf("partition: k = %d exceeds %d nodes", k, n)
	}
	ug := undirectedView(g)
	rng := rand.New(rand.NewSource(opts.Seed))
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	recursiveBisect(ug, ids, 0, k, parts, opts.imbalance(), rng)
	return parts, nil
}

// recursiveBisect splits the vertex set ids (local ids into ug) into parts
// firstPart..firstPart+k-1, writing global part ids into out (indexed by
// the ORIGINAL node id carried in origIDs alongside ug construction).
func recursiveBisect(ug *ugraph, origIDs []int32, firstPart, k int, out []int32, imb float64, rng *rand.Rand) {
	if k == 1 {
		for _, id := range origIDs {
			out[id] = int32(firstPart)
		}
		return
	}
	kl := k / 2
	kr := k - kl
	frac := float64(kl) / float64(k)
	side := bisect(ug, frac, imb, rng)
	if kr == 1 { // so kl == 1 too: label both halves straight from side
		for v, s := range side {
			out[origIDs[v]] = int32(firstPart) + int32(s)
		}
		return
	}
	// Split ug into the two induced sub-ugraphs and recurse.
	leftUG, leftIDs := subUGraph(ug, origIDs, side, 0)
	rightUG, rightIDs := subUGraph(ug, origIDs, side, 1)
	recursiveBisect(leftUG, leftIDs, firstPart, kl, out, imb, rng)
	recursiveBisect(rightUG, rightIDs, firstPart+kl, kr, out, imb, rng)
}

// subUGraph extracts the induced sub-ugraph of vertices on the given side,
// carrying original ids along.
func subUGraph(ug *ugraph, origIDs []int32, side []int8, which int8) (*ugraph, []int32) {
	n := ug.numNodes()
	local := make([]int32, n)
	for i := range local {
		local[i] = -1
	}
	var ids []int32
	var cnt int32
	for v := 0; v < n; v++ {
		if side[v] == which {
			local[v] = cnt
			cnt++
			ids = append(ids, origIDs[v])
		}
	}
	xadj := make([]int32, cnt+1)
	var adjncy, adjwgt []int32
	var li int32
	for v := int32(0); v < int32(n); v++ {
		if side[v] != which {
			continue
		}
		nbrs, wts := ug.neighbors(v)
		for i, nb := range nbrs {
			if side[nb] == which {
				adjncy = append(adjncy, local[nb])
				adjwgt = append(adjwgt, wts[i])
			}
		}
		xadj[li+1] = int32(len(adjncy))
		li++
	}
	vwgt := make([]int32, cnt)
	li = 0
	for v := 0; v < n; v++ {
		if side[v] == which {
			vwgt[li] = ug.vwgt[v]
			li++
		}
	}
	return &ugraph{xadj: xadj, adjncy: adjncy, adjwgt: adjwgt, vwgt: vwgt}, ids
}

// CutEdges returns the directed edges of g whose endpoints lie in
// different parts, as undirected endpoint pairs (deduplicated).
func CutEdges(g *graph.Graph, parts []int32) []matching.Edge {
	seen := make(map[[2]int32]bool)
	var edges []matching.Edge
	for u := int32(0); u < int32(g.NumNodes()); u++ {
		for _, v := range g.Out(u) {
			if parts[u] == parts[v] {
				continue
			}
			key := [2]int32{u, v}
			if v < u {
				key = [2]int32{v, u}
			}
			if !seen[key] {
				seen[key] = true
				edges = append(edges, matching.Edge{U: key[0], V: key[1]})
			}
		}
	}
	return edges
}

// HubNodes selects the hub set for a partition: a vertex cover of the cut
// edges, so removing the hubs disconnects the parts. For 2-way partitions
// the cut-edge graph is bipartite (every cut edge joins part 0 and part 1)
// and König's theorem yields a minimum cover; otherwise the greedy
// 2-approximation is used. The result is sorted-free (map form).
func HubNodes(g *graph.Graph, parts []int32, k int) map[int32]bool {
	cut := CutEdges(g, parts)
	if len(cut) == 0 {
		return map[int32]bool{}
	}
	if k == 2 {
		return konigCover(cut, parts)
	}
	return matching.GreedyVertexCover(cut)
}

// konigCover computes the minimum vertex cover of bipartite cut edges
// between part 0 (left) and part 1 (right).
func konigCover(cut []matching.Edge, parts []int32) map[int32]bool {
	// Compact the endpoint ids per side.
	leftIdx := make(map[int32]int32)
	rightIdx := make(map[int32]int32)
	var leftIDs, rightIDs []int32
	intern := func(node int32) (side int, idx int32) {
		if parts[node] == 0 {
			if i, ok := leftIdx[node]; ok {
				return 0, i
			}
			i := int32(len(leftIDs))
			leftIdx[node] = i
			leftIDs = append(leftIDs, node)
			return 0, i
		}
		if i, ok := rightIdx[node]; ok {
			return 1, i
		}
		i := int32(len(rightIDs))
		rightIdx[node] = i
		rightIDs = append(rightIDs, node)
		return 1, i
	}
	type lr struct{ l, r int32 }
	var pairs []lr
	for _, e := range cut {
		su, iu := intern(e.U)
		_, iv := intern(e.V)
		if su == 0 {
			pairs = append(pairs, lr{iu, iv})
		} else {
			pairs = append(pairs, lr{iv, iu})
		}
	}
	bg := &matching.BipartiteGraph{L: len(leftIDs), R: len(rightIDs), Adj: make([][]int32, len(leftIDs))}
	for _, p := range pairs {
		bg.Adj[p.l] = append(bg.Adj[p.l], p.r)
	}
	coverL, coverR := matching.MinVertexCover(bg)
	hubs := make(map[int32]bool)
	for i, in := range coverL {
		if in {
			hubs[leftIDs[i]] = true
		}
	}
	for i, in := range coverR {
		if in {
			hubs[rightIDs[i]] = true
		}
	}
	return hubs
}

// Balance returns max part weight / ideal part weight for a partition
// (1.0 = perfect). Hub nodes can be excluded via the skip set (nil ok).
func Balance(parts []int32, k int, skip map[int32]bool) float64 {
	if k == 0 {
		return 1
	}
	w := make([]int, k)
	total := 0
	for u, p := range parts {
		if skip[int32(u)] {
			continue
		}
		w[p]++
		total++
	}
	if total == 0 {
		return 1
	}
	maxW := 0
	for _, x := range w {
		if x > maxW {
			maxW = x
		}
	}
	return float64(maxW) * float64(k) / float64(total)
}

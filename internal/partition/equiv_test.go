package partition

import (
	"math/rand"
	"slices"
	"testing"

	"exactppr/internal/gen"
	"exactppr/internal/graph"
)

// The gain-heap fmRefine and the sort-based adjacency construction must
// reproduce the original implementations (oracle_test.go) exactly: the
// hierarchy, and with it every store file, is a pure function of their
// output. The scan's "gain ≤ −2⁴⁰" filter has no counterpart in the heap
// version because it can never fire: |gain| is at most a vertex's total
// edge weight, which is below 2³² for any graph an int32 CSR can hold.

// randomUGraph builds a symmetric ugraph with n vertices, about avgDeg
// neighbours each, vertex weights in [1, maxVwgt] and edge weights in
// [1, maxEwgt]. Rows are sorted, as every ugraph the partitioner builds.
func randomUGraph(rng *rand.Rand, n int, avgDeg float64, maxVwgt, maxEwgt int32) *ugraph {
	type edge struct{ a, b, w int32 }
	seen := make(map[[2]int32]bool)
	var edges []edge
	for i := 0; i < int(avgDeg*float64(n)/2); i++ {
		a, b := rng.Int31n(int32(n)), rng.Int31n(int32(n))
		if a == b {
			continue
		}
		key := [2]int32{min(a, b), max(a, b)}
		if seen[key] {
			continue
		}
		seen[key] = true
		edges = append(edges, edge{a, b, 1 + rng.Int31n(maxEwgt)})
	}
	xadj := make([]int32, n+1)
	for _, e := range edges {
		xadj[e.a+1]++
		xadj[e.b+1]++
	}
	for i := 0; i < n; i++ {
		xadj[i+1] += xadj[i]
	}
	adjncy := make([]int32, 2*len(edges))
	adjwgt := make([]int32, 2*len(edges))
	next := slices.Clone(xadj[:n])
	for _, e := range edges {
		adjncy[next[e.a]], adjwgt[next[e.a]] = e.b, e.w
		next[e.a]++
		adjncy[next[e.b]], adjwgt[next[e.b]] = e.a, e.w
		next[e.b]++
	}
	vwgt := make([]int32, n)
	for i := range vwgt {
		vwgt[i] = 1 + rng.Int31n(maxVwgt)
	}
	u := &ugraph{xadj: xadj, adjncy: adjncy, adjwgt: adjwgt, vwgt: vwgt}
	sortAdjSlice(u)
	return u
}

// startingSides returns a starting bisection and the [minW, maxW] window
// for it. Mode 0 is a random assignment; mode 1 puts every vertex on side
// 1, so side 0 has nothing to move; mode 2 fills side 0 up to exactly
// minW, so no side-0 vertex may leave until side 0 gains weight; mode 3
// is a region grown by initialBisection, as bisect starts.
func startingSides(rng *rand.Rand, g *ugraph, mode int, frac, imb float64) ([]int8, int64, int64) {
	n := g.numNodes()
	total := g.totalWeight()
	target := int64(frac * float64(total))
	maxW := int64(float64(target) * (1 + imb))
	minW := int64(float64(target) * (1 - imb))
	if maxW >= total {
		maxW = total - 1
	}
	if minW < 1 {
		minW = 1
	}
	side := make([]int8, n)
	switch mode {
	case 0:
		for v := range side {
			side[v] = int8(rng.Intn(2))
		}
	case 1:
		for v := range side {
			side[v] = 1
		}
	case 2:
		var w int64
		for _, v := range rng.Perm(n) {
			if w+int64(g.vwgt[v]) <= maxW && w < minW {
				w += int64(g.vwgt[v])
			} else {
				side[v] = 1
			}
		}
		minW = w
	case 3:
		side = initialBisection(g, target, maxW, rng)
	}
	return side, minW, maxW
}

func TestFMRefineMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	moved := 0
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(300)
		maxVwgt := int32(1 + rng.Intn(8))
		g := randomUGraph(rng, n, 1+rng.Float64()*7, maxVwgt, int32(1+rng.Intn(4)))
		mode := trial % 4
		frac := []float64{0.5, 1.0 / 3, 2.0 / 3, 0.25}[rng.Intn(4)]
		imb := 0.01 + rng.Float64()*0.19
		start, minW, maxW := startingSides(rng, g, mode, frac, imb)

		want := slices.Clone(start)
		fmRefineScan(g, want, minW, maxW)
		got := slices.Clone(start)
		fmRefine(g, got, minW, maxW)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d vwgt≤%d mode=%d frac=%.2f imb=%.3f): heap sides differ from scan",
				trial, n, maxVwgt, mode, frac, imb)
		}
		if !slices.Equal(got, start) {
			moved++
		}
	}
	// The suite is only meaningful if refinement changes the sides often.
	// Modes 1 and 2 mostly roll every move back (their start has the
	// least cut a feasible prefix can reach), so about half of all
	// trials end where they started.
	if moved < 150 {
		t.Fatalf("only %d of 400 trials changed the sides", moved)
	}
}

// TestFMRefineMatchesScanOnCoarseLevels replays the multilevel pipeline's
// own graphs — every coarsening level of real generated graphs — through
// both refiners.
func TestFMRefineMatchesScanOnCoarseLevels(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		g, err := gen.Community(gen.Config{
			Nodes: 400 + 100*int(seed), AvgOutDegree: 3 + float64(seed%4),
			Communities: 2 + int(seed%5), InterFrac: 0.05 * float64(seed%4),
			Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		for li, lv := range coarsen(undirectedView(g), rng) {
			for mode := 0; mode < 4; mode++ {
				start, minW, maxW := startingSides(rng, lv.g, mode, 0.5, 0.05)
				want := slices.Clone(start)
				fmRefineScan(lv.g, want, minW, maxW)
				got := slices.Clone(start)
				fmRefine(lv.g, got, minW, maxW)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d level %d mode %d: heap sides differ from scan", seed, li, mode)
				}
			}
		}
	}
}

func sameCSR(t *testing.T, what string, got, want *ugraph) {
	t.Helper()
	if !slices.Equal(got.xadj, want.xadj) || !slices.Equal(got.adjncy, want.adjncy) ||
		!slices.Equal(got.adjwgt, want.adjwgt) || !slices.Equal(got.vwgt, want.vwgt) {
		t.Fatalf("%s: CSR arrays differ from the oracle", what)
	}
}

func TestUndirectedViewMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(400)
		var g *graph.Graph
		switch trial % 3 {
		case 0:
			g = gen.ErdosRenyi(n, rng.Float64()*6, int64(trial))
		case 1:
			var err error
			g, err = gen.Community(gen.Config{
				Nodes: n, AvgOutDegree: 1 + rng.Float64()*5,
				Communities: 1 + rng.Intn(4), InterFrac: rng.Float64() * 0.3,
				Seed: int64(trial),
			})
			if err != nil {
				t.Fatal(err)
			}
		case 2:
			// Dense reciprocal edges: most pairs carry weight 2.
			adj := make([][]int32, n)
			for a := range adj {
				for k := 0; k < 4; k++ {
					b := rng.Int31n(int32(n))
					adj[a] = append(adj[a], b)
					if rng.Intn(3) > 0 {
						adj[b] = append(adj[b], int32(a))
					}
				}
			}
			g = graph.FromAdjacency(adj)
		}
		sameCSR(t, "undirectedView", undirectedView(g), undirectedViewMap(g))
	}
}

func TestSortAdjMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		want := randomUGraph(rng, 1+rng.Intn(300), rng.Float64()*10, 8, 1<<20)
		// Shuffle every row, keeping weights aligned, then re-sort.
		got := &ugraph{
			xadj: want.xadj, adjncy: slices.Clone(want.adjncy),
			adjwgt: slices.Clone(want.adjwgt), vwgt: want.vwgt,
		}
		for v := 0; v < got.numNodes(); v++ {
			nbrs, wts := got.neighbors(int32(v))
			rng.Shuffle(len(nbrs), func(i, j int) {
				nbrs[i], nbrs[j] = nbrs[j], nbrs[i]
				wts[i], wts[j] = wts[j], wts[i]
			})
		}
		got.sortAdj()
		sameCSR(t, "sortAdj", got, want)
	}
	// Coarse graphs come out of contract through sortAdj.
	for seed := int64(0); seed < 20; seed++ {
		ug := undirectedView(gen.ErdosRenyi(500, 4, seed))
		cg, _ := contract(ug, heavyEdgeMatch(ug, rand.New(rand.NewSource(seed))))
		want := &ugraph{xadj: cg.xadj, adjncy: slices.Clone(cg.adjncy), adjwgt: slices.Clone(cg.adjwgt), vwgt: cg.vwgt}
		sortAdjSlice(want)
		sameCSR(t, "contract", cg, want)
	}
}

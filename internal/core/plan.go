package core

import (
	"cmp"
	"fmt"
	"slices"

	"exactppr/internal/hierarchy"
)

// Hub plans: the transposed skeleton index.
//
// The serving identity folds, for query node u, the term
// (S_u(h)/α)·P_h + S_u(h)·x_h for every hub h on Path(u), where
// S_u(h) = s_u(h) − α·f_u(h) comes from hub h's skeleton vector. Stored
// row-major (one vector per hub), answering that needs the ENTIRE
// skeleton vector of every path hub fetched from disk just to read one
// scalar — by far the dominant read traffic of the old disk-resident
// query path. The transpose stores, per query node u, exactly the
// non-zero (h, s_u(h)) pairs it will fold, so a disk query reads one
// small plan row plus the partial vectors it actually needs: zero
// skeleton payloads. It is the only form the store file keeps skeleton
// values in; loaders transpose it back (skeletons).
//
// Ordering is load-bearing: the fold (fold.go) must visit hubs in
// exactly the order the in-memory source walks them — Path(u)
// root→home, then node.Hubs order — or disk and in-memory answers stop
// being bit-identical. A path holds at most one tree node per level, so
// the pair (home level, index within node.Hubs) is a total fold rank
// that reproduces that order for every query node at once; rows are
// kept sorted by it.

// planRow is one query node's hub-weight plan: parallel arrays of hub id
// and raw skeleton value s_u(h), in fold order (NOT sorted by id).
type planRow struct {
	hubs []int32
	s    []float64
}

// foldRanks returns every node id's fold rank — its home level in the
// high 32 bits, its index in that node's Hubs in the low — or -1 for a
// non-hub.
func foldRanks(h *hierarchy.Hierarchy) []int64 {
	ranks := make([]int64, h.G.NumNodes())
	for u := range ranks {
		ranks[u] = -1
	}
	for _, n := range h.Nodes() {
		for i, hub := range n.Hubs {
			ranks[hub] = int64(n.Level)<<32 | int64(i)
		}
	}
	return ranks
}

// planTable is the plan section in CSR form: row u is entries
// start[u]:start[u+1] of hubs and s.
type planTable struct {
	start []int32
	hubs  []int32
	s     []float64
}

func (t planTable) row(u int32) planRow {
	a, b := t.start[u], t.start[u+1]
	return planRow{t.hubs[a:b:b], t.s[a:b:b]}
}

// rows counts the non-empty rows: the records Save writes.
func (t planTable) rows() int {
	k := 0
	for u := range len(t.start) - 1 {
		if t.start[u+1] > t.start[u] {
			k++
		}
	}
	return k
}

// buildHubPlans transposes the skeleton vectors into the plan table Save
// writes: a count, prefix-sum and fill pass over the hubs in fold-rank
// order, so every row comes out in fold order. Each hub's own row is
// guaranteed to contain the hub itself (injected with value 0 when the
// stored skeleton lacks it, e.g. after aggressive truncation) because
// the query fold applies the −α self-adjustment to that entry even when
// s_u(u) is absent. A stored vector holds no zero, so the injected
// entries are the rows' only zeros.
func buildHubPlans(h *hierarchy.Hierarchy, skeleton Table) planTable {
	n := h.G.NumNodes()
	ranks := foldRanks(h)
	var order []int32
	for _, nd := range h.Nodes() {
		order = append(order, nd.Hubs...)
	}
	// A row holds at most one tree node per level, so hubs of equal rank
	// never share one.
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(ranks[a], ranks[b]) })
	t := planTable{start: make([]int32, n+1)}
	for _, hub := range order {
		vec, _ := skeleton.Get(hub)
		for k := range vec.Len() {
			t.start[vec.At(k).ID+1]++
		}
		if vec.Get(hub) == 0 {
			t.start[hub+1]++
		}
	}
	for u := range n {
		t.start[u+1] += t.start[u]
	}
	t.hubs, t.s = make([]int32, t.start[n]), make([]float64, t.start[n])
	next := slices.Clone(t.start[:n])
	put := func(w, hub int32, s float64) {
		t.hubs[next[w]], t.s[next[w]] = hub, s
		next[w]++
	}
	for _, hub := range order {
		vec, _ := skeleton.Get(hub)
		if vec.Get(hub) == 0 {
			put(hub, hub, 0)
		}
		for k := range vec.Len() {
			e := vec.At(k)
			put(e.ID, hub, e.Score)
		}
	}
	return t
}

// skeletons rebuilds the skeleton vectors of the hubs own admits (every
// hub's, for a whole store) of the store over h, the tree parseStore
// returned with d, by transposing the plan rows: hub h's vector
// holds s_u(h) for each row u that lists h with a non-zero value. The
// rows' zeros are the self entries buildHubPlans injects, so dropping
// them rebuilds each vector bit for bit. Every row is checked, owned or
// not: its hubs must lie on Path(u), in fold order — what makes the
// disk fold of a row and the memory fold of the rebuilt vectors agree.
// The table is sized by skeletonLens up front, and the rows, taken in
// ascending u, fill each hub's slots in ascending id order.
func (d *diskFile) skeletons(h *hierarchy.Hierarchy, own *owner) (Table, error) {
	n := int32(h.G.NumNodes())
	lens := d.skeletonLens()
	t, err := makeTable(int(n), func(hub int32) (int, bool) {
		return int(lens[hub]), h.IsHub(hub) && own.hub(hub)
	})
	if err != nil {
		return Table{}, err
	}
	next := make([]int32, n) // each owned hub's next slot in t
	for hub := range n {
		next[hub] = t.start(hub)
	}
	ranks := foldRanks(h)
	var path []*hierarchy.Node // Path(u), indexed by level
	for u := range n {
		row, err := d.row(u)
		if err != nil {
			return Table{}, err
		}
		home := h.Home(u)
		level := int(home.Level)
		path = slices.Grow(path[:0], level+1)[:level+1]
		for nd := home; nd != nil; nd = nd.Parent {
			path[nd.Level] = nd
		}
		for k, hub := range row.hubs {
			lv := h.HubLevel(hub)
			if lv < 0 || lv >= len(path) || path[lv] != h.Home(hub) || k > 0 && ranks[hub] <= ranks[row.hubs[k-1]] {
				return Table{}, fmt.Errorf("core: hub plan for %d lists hub %d off its path or out of fold order (corrupt store?)", u, hub)
			}
			if row.s[k] != 0 && own.hub(hub) {
				// skeletonLens counted this entry: it has its slot.
				t.ids[next[hub]], t.scores[next[hub]] = u, row.s[k]
				next[hub]++
			}
		}
	}
	return t, nil
}

package core

import (
	"slices"

	"exactppr/internal/hierarchy"
	"exactppr/internal/sparse"
)

// Hub plans: the transposed skeleton index.
//
// The serving identity folds, for query node u, the term
// (S_u(h)/α)·P_h + S_u(h)·x_h for every hub h on Path(u), where
// S_u(h) = s_u(h) − α·f_u(h) comes from the skeleton section. Stored
// row-major (one vector per hub), answering that needs the ENTIRE
// skeleton vector of every path hub fetched from disk just to read one
// scalar — by far the dominant read traffic of the old disk-resident
// query path. The transpose stores, per query node u, exactly the
// non-zero (h, s_u(h)) pairs it will fold, so a disk query reads one
// small plan row plus the partial vectors it actually needs: zero
// skeleton payloads.
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

// buildHubPlans transposes the skeleton section into the plan table
// Save writes. Each hub's own row is guaranteed to contain the hub itself
// (injected with value 0 when the stored skeleton lacks it, e.g. after
// aggressive truncation) because the query fold applies the −α
// self-adjustment to that entry even when s_u(u) is absent.
func buildHubPlans(h *hierarchy.Hierarchy, skeleton map[int32]sparse.Packed) map[int32]planRow {
	ranks := make(map[int32]int64)
	for _, n := range h.Nodes() {
		for i, hub := range n.Hubs {
			ranks[hub] = int64(n.Level)<<32 | int64(i)
		}
	}
	rows := make(map[int32]planRow)
	add := func(w, hub int32, s float64) {
		row := rows[w]
		row.hubs = append(row.hubs, hub)
		row.s = append(row.s, s)
		rows[w] = row
	}
	for hub, vec := range skeleton {
		vec.ForEach(func(w int32, s float64) { add(w, hub, s) })
	}
	for hub := range ranks {
		if !slices.Contains(rows[hub].hubs, hub) {
			add(hub, hub, 0)
		}
	}
	for _, row := range rows {
		// Insertion sort by fold rank: rows are short — one entry per
		// path hub.
		for i := 1; i < len(row.hubs); i++ {
			hi, si := row.hubs[i], row.s[i]
			ri := ranks[hi]
			j := i - 1
			for j >= 0 && ranks[row.hubs[j]] > ri {
				row.hubs[j+1], row.s[j+1] = row.hubs[j], row.s[j]
				j--
			}
			row.hubs[j+1], row.s[j+1] = hi, si
		}
	}
	return rows
}

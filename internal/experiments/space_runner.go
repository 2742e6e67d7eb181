package experiments

import (
	"fmt"

	"exactppr/internal/core"
	"exactppr/internal/hierarchy"
)

// runSpace makes §3.2's space analysis concrete: the pre-computation size
// of the brute-force PPV-JW extension (flat PageRank hubs — partial
// vector supports roam the whole graph) versus GPA (separator hubs
// confine them to parts) versus HGPA (hierarchy shrinks them further).
// This is the paper's core argument for why partitioned hubs make exact
// PPV storage feasible.
func runSpace(cfg Config) ([]Table, error) {
	var tables []Table
	for _, dsName := range []string{"email", "web"} {
		hgpa, err := buildStore(cfg, dsName, hierarchy.Options{})
		if err != nil {
			return nil, err
		}
		gpa, err := buildStore(cfg, dsName, hierarchy.Options{Fanout: cfg.Machines, MaxLevels: 1})
		if err != nil {
			return nil, err
		}
		// PPV-JW with the same hub budget HGPA ended up using.
		jw, err := core.PrecomputeJW(hgpa.ds.G, hgpa.store.H.TotalHubs(), cfg.params(), cfg.Workers)
		if err != nil {
			return nil, err
		}
		hs := hgpa.store.Stats()
		gs := gpa.store.Stats()
		t := Table{
			Title: fmt.Sprintf("Pre-computation space (§3.2/§4.5) — %s analogue, %d hubs",
				hgpa.ds.Name, hgpa.store.H.TotalHubs()),
			Header: []string{"Method", "Space(MB)", "StoredEntries", "vs PPV-JW"},
		}
		jwBytes := jw.SpaceBytes()
		row := func(name string, bytes int64, entries int64) []string {
			return []string{
				name, mb(bytes), fmt.Sprint(entries),
				fmt.Sprintf("%.2fx", float64(bytes)/float64(jwBytes)),
			}
		}
		jwEntries := jw.Partial.Entries() + jw.Skeleton.Entries()
		t.Rows = append(t.Rows,
			row("PPV-JW", jwBytes, jwEntries),
			row("GPA", gpa.store.SpaceBytes(), gs.PartialEntries+gs.SkeletonEntries+gs.LeafEntries),
			row("HGPA", hgpa.store.SpaceBytes(), hs.PartialEntries+hs.SkeletonEntries+hs.LeafEntries),
		)
		tables = append(tables, t)
	}
	return tables, nil
}

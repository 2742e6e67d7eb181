package exactppr

import (
	"testing"

	"exactppr/internal/core"
	"exactppr/internal/fastppv"
	"exactppr/internal/gen"
	"exactppr/internal/hierarchy"
	"exactppr/internal/ppr"
)

// TestSpaceBytesPinned pins the space measure (sparse.SpaceBytes, 4+12n
// bytes per stored vector of n entries) of the HGPA store, the JW
// baseline and the FastPPV index on web×0.1. Space is a stored-vector
// measure, separate from the share wire format: a change to the wire
// codec must leave these values as they are, or the space tables of the
// paper harness would compare the methods unevenly.
func TestSpaceBytesPinned(t *testing.T) {
	g, err := gen.Dataset("web", 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := ppr.Params{Alpha: 0.15, Eps: 1e-4}
	s, err := core.BuildHGPA(g, hierarchy.Options{Seed: 1}, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	jw, err := core.PrecomputeJW(g, 16, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := fastppv.BuildIndex(g, 16, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"HGPA store", s.SpaceBytes(), 298580},
		{"JW store", jw.SpaceBytes(), 1651636},
		{"FastPPV index", ix.SpaceBytes(), 4628},
	} {
		if c.got != c.want {
			t.Errorf("%s: SpaceBytes %d, want %d", c.name, c.got, c.want)
		}
	}
}

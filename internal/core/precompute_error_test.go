package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"exactppr/internal/gen"
	"exactppr/internal/hierarchy"
	"exactppr/internal/ppr"
)

// TestPrecomputeErrorDeterministic: a build whose every vector fails
// (MaxIter 1 caps each kernel at |V| pushes, far short of Eps 1e-9)
// reports the error of its first task at every worker count, run after
// run — not whichever worker happened to fail first.
func TestPrecomputeErrorDeterministic(t *testing.T) {
	g, err := gen.Dataset("web", 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	h, err := hierarchy.Build(g, hierarchy.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := ppr.Params{Alpha: 0.15, Eps: 1e-9, MaxIter: 1}
	builds := []struct {
		name  string
		first string // names the first task's vector
		build func(workers int) error
	}{
		{"hgpa", fmt.Sprintf("partial of hub %d:", h.Nodes()[0].Hubs[0]), func(w int) error {
			_, err := Precompute(h, p, w)
			return err
		}},
		{"jw", "partial from 0 ", func(w int) error {
			_, err := PrecomputeJW(g, 16, p, w)
			return err
		}},
	}
	for _, b := range builds {
		seen := map[string]int{}
		for _, workers := range []int{1, 2, 4, 8} {
			for range 5 {
				err := b.build(workers)
				if !errors.Is(err, ppr.ErrPushCap) {
					t.Fatalf("%s workers=%d: err %v, want ErrPushCap", b.name, workers, err)
				}
				seen[err.Error()]++
			}
		}
		if len(seen) != 1 {
			t.Errorf("%s: %d distinct errors over 20 builds: %v", b.name, len(seen), seen)
			continue
		}
		for msg := range seen {
			if !strings.Contains(msg, b.first) {
				t.Errorf("%s: error %q is not the first task's (%q)", b.name, msg, b.first)
			}
		}
	}
}

package core

import (
	"errors"
	"math"
	"testing"

	"exactppr/internal/graph"
)

// TestQueryErrorClasses: every backend reports a caller's mistake as the
// sentinel a front end classifies with errors.Is.
func TestQueryErrorClasses(t *testing.T) {
	s, ds := diskStoreFixture(t)
	n := int32(s.H.G.NumNodes())
	shards, err := Split(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		err  error
		want error
	}{
		{"store node", second(s.Query(n)), ErrNodeOutOfRange},
		{"disk node", second(ds.Query(-1)), ErrNodeOutOfRange},
		{"shard node", second(shards[1].QueryPacked(n)), ErrNodeOutOfRange},
		{"set node", second(s.QuerySet(Preference{Nodes: []int32{0, n}})), ErrNodeOutOfRange},
		{"set duplicate", second(ds.QuerySet(Preference{Nodes: []int32{3, 3}})), ErrBadPreference},
		{"set empty", second(shards[0].QuerySetPacked(Preference{})), ErrBadPreference},
		{"set weights", second(s.QuerySet(Preference{Nodes: []int32{1}, Weights: []float64{math.NaN()}})), ErrBadPreference},
		{"delta edge", second(NewLiveStore(s).ApplyUpdates(graph.Delta{Insert: [][2]int32{{0, n}}}, 0)), graph.ErrEdgeOutOfRange},
	} {
		if !errors.Is(c.err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, c.err, c.want)
		}
	}
}

func second[T any](_ T, err error) error { return err }

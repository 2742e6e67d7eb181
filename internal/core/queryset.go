package core

import (
	"fmt"
	"math"

	"exactppr/internal/sparse"
)

// Preference-set queries. The PPV of a preference set P with weights w
// is the w-weighted combination of the members' PPVs — the linearity
// property of Jeh–Widom [25] that the paper's preliminaries build on
// (§1, Eq. 1). Both the centralized store and the shards support it, so
// the distributed protocol still needs exactly one vector per machine
// per query.

// Preference is a weighted preference node set. Weights must be positive
// and finite, with a finite sum; they are normalized to sum to 1.
type Preference struct {
	Nodes   []int32
	Weights []float64 // nil = uniform
}

// CheckWeights validates the weights alone — one per node, each positive
// and finite, with a finite sum — so a front end can reject a malformed
// set before dispatching it. A NaN weight would poison every score, and a
// sum that overflows to +Inf would normalize every weight to zero and
// answer an all-zero vector as if it were exact.
func (p Preference) CheckWeights() error {
	if p.Weights == nil {
		return nil
	}
	if len(p.Weights) != len(p.Nodes) {
		return fmt.Errorf("core: %d weights for %d nodes", len(p.Weights), len(p.Nodes))
	}
	var total float64
	for i, wi := range p.Weights {
		if !(wi > 0) || math.IsInf(wi, 1) {
			return fmt.Errorf("core: weight %v for node %d is not positive and finite", wi, p.Nodes[i])
		}
		total += wi
	}
	if math.IsInf(total, 1) {
		return fmt.Errorf("core: preference weights sum past the float64 range")
	}
	return nil
}

// normalized validates the preference and returns per-node normalized
// weights.
func (p Preference) normalized(n int) ([]float64, error) {
	if len(p.Nodes) == 0 {
		return nil, fmt.Errorf("core: empty preference set")
	}
	if err := p.CheckWeights(); err != nil {
		return nil, err
	}
	seen := make(map[int32]bool, len(p.Nodes))
	w := make([]float64, len(p.Nodes))
	var total float64
	for i, u := range p.Nodes {
		if u < 0 || int(u) >= n {
			return nil, fmt.Errorf("core: preference node %d out of range", u)
		}
		if seen[u] {
			return nil, fmt.Errorf("core: duplicate preference node %d", u)
		}
		seen[u] = true
		wi := 1.0
		if p.Weights != nil {
			wi = p.Weights[i]
		}
		w[i] = wi
		total += wi
	}
	for i := range w {
		w[i] /= total
	}
	return w, nil
}

// QuerySet constructs the exact PPV of a preference node set by
// linearity. All members fold into one shared accumulator — no
// per-member intermediate vectors.
func (s *Store) QuerySet(p Preference) (sparse.Vector, error) {
	w, err := p.normalized(s.H.G.NumNodes())
	if err != nil {
		return nil, err
	}
	acc := sparse.AcquireAccumulator(s.H.G.NumNodes())
	defer acc.Release()
	for i, u := range p.Nodes {
		if err := s.queryInto(acc, u, w[i]); err != nil {
			return nil, err
		}
	}
	return acc.Vector(), nil
}

// QuerySetVector is the shard-side preference-set fold: the weighted
// combination of the shard's per-node shares. Summing all shards'
// QuerySetVector outputs yields exactly QuerySet's result, still in one
// round.
func (sh *Shard) QuerySetVector(p Preference) (sparse.Vector, error) {
	acc, err := sh.querySetInto(p)
	if err != nil {
		return nil, err
	}
	defer acc.Release()
	return acc.Vector(), nil
}

// QuerySetPacked is QuerySetVector draining into the columnar form the
// wire protocol encodes directly.
func (sh *Shard) QuerySetPacked(p Preference) (sparse.Packed, error) {
	acc, err := sh.querySetInto(p)
	if err != nil {
		return sparse.Packed{}, err
	}
	defer acc.Release()
	return acc.Packed(), nil
}

func (sh *Shard) querySetInto(p Preference) (*sparse.Accumulator, error) {
	w, err := p.normalized(sh.store.H.G.NumNodes())
	if err != nil {
		return nil, err
	}
	acc := sparse.AcquireAccumulator(sh.store.H.G.NumNodes())
	for i, u := range p.Nodes {
		if err := sh.queryInto(acc, u, w[i]); err != nil {
			acc.Release()
			return nil, err
		}
	}
	return acc, nil
}

// QueryTopK returns the k highest-scoring nodes of u's exact PPV — the
// common application-facing call (recommendation, link prediction). The
// top-k selection runs straight off the accumulator: no map, no full
// sort.
func (s *Store) QueryTopK(u int32, k int) ([]sparse.Entry, error) {
	acc := sparse.AcquireAccumulator(s.H.G.NumNodes())
	defer acc.Release()
	if err := s.queryInto(acc, u, 1); err != nil {
		return nil, err
	}
	return acc.TopK(k), nil
}

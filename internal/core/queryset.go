package core

import (
	"errors"
	"fmt"
	"math"
)

// Query errors a front end answers as the caller's fault. They keep
// their class across the TCP transport (cluster's opError carries it),
// so callers classify with errors.Is, never by the message text.
var (
	// ErrNodeOutOfRange reports a query or preference node outside the
	// graph.
	ErrNodeOutOfRange = errors.New("core: node out of range")
	// ErrBadPreference reports a malformed preference set: empty, a
	// duplicate node, or weights that are not one positive finite value
	// per node with a finite sum.
	ErrBadPreference = errors.New("core: malformed preference set")
)

// nodeOutOfRange wraps ErrNodeOutOfRange for a query or preference node.
// It is never inlined, so the formatting adds nothing to serve's frame
// (see serve).
//
//go:noinline
func nodeOutOfRange(kind string, u int32) error {
	return fmt.Errorf("%w: %s node %d", ErrNodeOutOfRange, kind, u)
}

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
		return fmt.Errorf("%w: %d weights for %d nodes", ErrBadPreference, len(p.Weights), len(p.Nodes))
	}
	var total float64
	for i, wi := range p.Weights {
		if !(wi > 0) || math.IsInf(wi, 1) {
			return fmt.Errorf("%w: weight %v for node %d is not positive and finite", ErrBadPreference, wi, p.Nodes[i])
		}
		total += wi
	}
	if math.IsInf(total, 1) {
		return fmt.Errorf("%w: weights sum past the float64 range", ErrBadPreference)
	}
	return nil
}

// normalized validates the preference and returns per-node normalized
// weights.
func (p Preference) normalized(n int) ([]float64, error) {
	if len(p.Nodes) == 0 {
		return nil, fmt.Errorf("%w: no nodes", ErrBadPreference)
	}
	if err := p.CheckWeights(); err != nil {
		return nil, err
	}
	seen := make(map[int32]bool, len(p.Nodes))
	w := make([]float64, len(p.Nodes))
	var total float64
	for i, u := range p.Nodes {
		if u < 0 || int(u) >= n {
			return nil, nodeOutOfRange("preference", u)
		}
		if seen[u] {
			return nil, fmt.Errorf("%w: duplicate node %d", ErrBadPreference, u)
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

package main

import (
	"encoding/json"
	"fmt"
	"math"

	"exactppr/internal/core"
	"exactppr/internal/ppr"
	"exactppr/internal/sparse"
)

// Exactness: sampled gateway answers are compared with an independently
// loaded in-memory store (scores within exactTol; ties may reorder), and
// the first few single-node answers also with power iteration on the
// graph (within oracleTol). Everything here runs outside the timed window.

const (
	exactTol = 1e-9
	// oracleNodes is how many single-node answers per check are also
	// compared with power iteration.
	oracleNodes = 3
)

// oracleTol bounds a served entry's distance from the converged PPV.
// Each pre-computed kernel entry is within ε/α of its fixed point, and an
// answer sums a leaf or partial vector with skeleton-weighted hub
// partials, so an entry may sit a few ε/α off: over all 12,000 fixture
// nodes the worst top-10 entry is 1.07e-3 (1.6·ε/α) from power iteration
// at ε = 1e-12. 3·ε/α leaves room for that and still fails a wrong α,
// node mapping or missing hub term.
var oracleTol = 3 * params.Eps / params.Alpha

type answer struct {
	TopK []sparse.Entry `json:"topk"`
}

type batchAnswer struct {
	Results []answer `json:"results"`
}

// checker compares gateway answers with a reference store.
type checker struct {
	ref     *core.Store
	checked int
	oracled int
	wrong   []string
}

func (c *checker) fail(format string, args ...any) {
	c.wrong = append(c.wrong, fmt.Sprintf(format, args...))
}

// check verifies one sampled reply.
func (c *checker) check(s sample) {
	switch s.op.kind {
	case opGet:
		var a answer
		if err := json.Unmarshal(s.body, &a); err != nil {
			c.fail("get %d: bad JSON: %v", s.op.nodes[0], err)
			return
		}
		c.node(s.op.nodes[0], a.TopK)
	case opBatch:
		var b batchAnswer
		if err := json.Unmarshal(s.body, &b); err != nil || len(b.Results) != len(s.op.nodes) {
			c.fail("batch %v: bad reply (%v)", s.op.nodes, err)
			return
		}
		for i, u := range s.op.nodes {
			c.node(u, b.Results[i].TopK)
		}
	case opSet:
		var a answer
		if err := json.Unmarshal(s.body, &a); err != nil {
			c.fail("set %v: bad JSON: %v", s.op.nodes, err)
			return
		}
		want, err := c.ref.QuerySet(core.Preference{Nodes: s.op.nodes, Weights: s.op.weights})
		if err != nil {
			c.fail("set %v: reference: %v", s.op.nodes, err)
			return
		}
		c.compare(fmt.Sprintf("set %v", s.op.nodes), a.TopK, want)
	}
}

func (c *checker) node(u int32, got []sparse.Entry) {
	want, err := c.ref.Query(u)
	if err != nil {
		c.fail("node %d: reference: %v", u, err)
		return
	}
	c.compare(fmt.Sprintf("node %d", u), got, want)
	if c.oracled < oracleNodes {
		c.oracled++
		// Far past the store's ε, so the comparison measures the store's
		// error: power iteration stopped at a per-entry change of ε may
		// itself sit ε·(1−α)/α from its fixed point.
		oracle, err := ppr.PowerIteration(c.ref.H.G, u, ppr.Params{Alpha: params.Alpha, Eps: 1e-12})
		if err != nil {
			c.fail("node %d: power iteration: %v", u, err)
			return
		}
		for _, e := range got {
			if d := math.Abs(e.Score - oracle.Get(e.ID)); d > oracleTol {
				c.fail("node %d: entry %d off power iteration by %.3g (> %.3g)", u, e.ID, d, oracleTol)
				return
			}
		}
	}
}

// compare checks a top-k answer against the full reference vector: the
// same number of entries, the same score at every rank, and every
// returned id scored as the reference scores it.
func (c *checker) compare(what string, got []sparse.Entry, want sparse.Vector) {
	c.checked++
	ref := want.TopK(topK)
	if len(got) != len(ref) {
		c.fail("%s: %d entries, reference has %d", what, len(got), len(ref))
		return
	}
	for i, e := range got {
		if d := math.Abs(e.Score - ref[i].Score); d > exactTol {
			c.fail("%s: rank %d score %.17g, reference %.17g", what, i, e.Score, ref[i].Score)
			return
		}
		if d := math.Abs(e.Score - want.Get(e.ID)); d > exactTol {
			c.fail("%s: node %d score %.17g, reference %.17g", what, e.ID, e.Score, want.Get(e.ID))
			return
		}
	}
}

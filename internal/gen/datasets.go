package gen

import (
	"fmt"
	"sort"

	"exactppr/internal/graph"
)

// This file defines the named dataset analogues. Each preset reproduces the
// paper dataset's *shape* — edge/node density, community structure, degree
// skew — at a scale that runs on a laptop. The `scale` argument multiplies
// the node count (1.0 = the default reduced size below, NOT the paper's
// size; PaperNodes and PaperEdges record the paper's sizes beside it).

// DatasetSpec describes one named synthetic dataset.
type DatasetSpec struct {
	Name string
	// PaperNodes/PaperEdges are the sizes reported in §6.1, for reference
	// in experiment output.
	PaperNodes, PaperEdges int
	// BaseNodes is the node count at scale 1.0.
	BaseNodes int
	// AvgOutDegree matches the paper's |E|/|V| ratio.
	AvgOutDegree float64
	Communities  int
	InterFrac    float64
	DegreeSkew   float64
}

// Specs lists the built-in dataset analogues, keyed by lower-case name.
// Density ratios come straight from §6.1:
//
//	Email   265,214 /   420,045  → 1.58 edges/node
//	Web     875,713 / 5,105,039  → 5.83
//	Youtube 1,134,890 / 2,987,624 → 2.63
//	PLD   3,000,000 / 18,185,350 → 6.06
var Specs = map[string]DatasetSpec{
	"email": {
		Name: "Email", PaperNodes: 265214, PaperEdges: 420045,
		BaseNodes: 4000, AvgOutDegree: 1.6, Communities: 32, InterFrac: 0.04, DegreeSkew: 1.7,
	},
	"web": {
		Name: "Web", PaperNodes: 875713, PaperEdges: 5105039,
		BaseNodes: 12000, AvgOutDegree: 5.8, Communities: 96, InterFrac: 0.03, DegreeSkew: 1.9,
	},
	"youtube": {
		Name: "Youtube", PaperNodes: 1134890, PaperEdges: 2987624,
		BaseNodes: 16000, AvgOutDegree: 2.6, Communities: 128, InterFrac: 0.05, DegreeSkew: 1.8,
	},
	"pld": {
		Name: "PLD", PaperNodes: 3000000, PaperEdges: 18185350,
		BaseNodes: 24000, AvgOutDegree: 6.1, Communities: 192, InterFrac: 0.03, DegreeSkew: 1.9,
	},
	"pld_full": {
		Name: "PLD_full", PaperNodes: 101000000, PaperEdges: 1940000000,
		BaseNodes: 48000, AvgOutDegree: 8, Communities: 384, InterFrac: 0.03, DegreeSkew: 1.9,
	},
}

// DatasetNames returns the preset names in deterministic order.
func DatasetNames() []string {
	names := make([]string, 0, len(Specs))
	for n := range Specs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Dataset generates the named analogue at the given scale (> 0).
func Dataset(name string, scale float64, seed int64) (*graph.Graph, error) {
	spec, ok := Specs[name]
	if !ok {
		return nil, fmt.Errorf("gen: unknown dataset %q (have %v)", name, DatasetNames())
	}
	if scale <= 0 {
		return nil, fmt.Errorf("gen: scale = %v, want > 0", scale)
	}
	n := int(float64(spec.BaseNodes) * scale)
	if n < spec.Communities*2 {
		n = spec.Communities * 2
	}
	return Community(Config{
		Nodes:        n,
		AvgOutDegree: spec.AvgOutDegree,
		Communities:  spec.Communities,
		InterFrac:    spec.InterFrac,
		DegreeSkew:   spec.DegreeSkew,
		MinOutDegree: 1,
		Seed:         seed,
	})
}

// MeetupSizes mirrors Table 6: five graphs of increasing size whose
// edge/node ratio grows from ≈83 to ≈108. At reproduction scale the node
// counts are divided by ~600 and the (very high) affiliation density by ~8
// so the suite stays laptop-sized while preserving the growth trend.
var MeetupSizes = []struct {
	ID          string
	PaperNodes  int
	PaperEdges  int
	Nodes       int
	AvgOutDeg   float64
	Communities int
}{
	{"M1", 997304, 82966338, 1600, 10.4, 24},
	{"M2", 1197009, 107393088, 1900, 11.2, 28},
	{"M3", 1396054, 129774158, 2250, 11.6, 32},
	{"M4", 1596455, 163320390, 2600, 12.8, 38},
	{"M5", 1796226, 194083414, 2900, 13.5, 42},
}

// MeetupLike generates the i-th (0-based) Table 6 analogue.
func MeetupLike(i int, seed int64) (*graph.Graph, error) {
	if i < 0 || i >= len(MeetupSizes) {
		return nil, fmt.Errorf("gen: meetup index %d out of range [0,%d)", i, len(MeetupSizes))
	}
	s := MeetupSizes[i]
	return Community(Config{
		Nodes:        s.Nodes,
		AvgOutDegree: s.AvgOutDeg,
		Communities:  s.Communities,
		InterFrac:    0.05,
		DegreeSkew:   1.6,
		MinOutDegree: 1,
		Seed:         seed + int64(i),
	})
}

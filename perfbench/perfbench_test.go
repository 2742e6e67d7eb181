package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"exactppr/internal/gen"
)

// requestBytes renders the first n ops of a stream as the bytes sent.
func requestBytes(s *opStream, n int) []byte {
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		method, path, body := s.next().request()
		fmt.Fprintf(&b, "%s %s\n%s\n", method, path, body)
	}
	return b.Bytes()
}

func TestOpStreamsAreSeeded(t *testing.T) {
	const nodes, n = 12000, 5000
	for _, mixed := range []bool{false, true} {
		a := requestBytes(newOpStream(42, 0, nodes, mixed), n)
		if !bytes.Equal(a, requestBytes(newOpStream(42, 0, nodes, mixed), n)) {
			t.Fatalf("mixed=%v: one seed gave two op sequences", mixed)
		}
		if bytes.Equal(a, requestBytes(newOpStream(43, 0, nodes, mixed), n)) {
			t.Fatalf("mixed=%v: seeds 42 and 43 gave the same op sequence", mixed)
		}
		if bytes.Equal(a, requestBytes(newOpStream(42, 1, nodes, mixed), n)) {
			t.Fatalf("mixed=%v: clients 0 and 1 share an op sequence", mixed)
		}
	}

	g, err := gen.Dataset(fixtureDataset, fixtureScale, fixtureSeed)
	if err != nil {
		t.Fatal(err)
	}
	sched := edgeSchedule(g, 42, 9)
	if !reflect.DeepEqual(sched, edgeSchedule(g, 42, 9)) {
		t.Fatal("one seed gave two update schedules")
	}
	for i, d := range sched {
		if i%2 == 1 {
			if !reflect.DeepEqual(d.Delete, sched[i-1].Insert) || d.Insert != nil {
				t.Fatalf("batch %d does not revert batch %d", i, i-1)
			}
			continue
		}
		if len(d.Insert) != edgesPerBatch {
			t.Fatalf("batch %d inserts %d edges, want %d", i, len(d.Insert), edgesPerBatch)
		}
		for _, e := range d.Insert {
			if e[0] == e[1] || g.HasEdge(e[0], e[1]) {
				t.Fatalf("batch %d inserts %v, a self-loop or an existing edge", i, e)
			}
		}
	}
}

// declaredMetrics reads the metric names BENCHMARK.json declares.
func declaredMetrics(t *testing.T) (endToEnd, perLayer []string) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

func metricNames(r *result) []string {
	var names []string
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestTracedRunMatchesUntraced runs every workload untraced and traced on
// a fixed number of ops, so both send identical requests: the traced run
// (an untraced window, then a traced one) must see exactly twice the
// untraced run's replies, code by code, and the same seed-determined
// counts. Both must report exactly the metrics BENCHMARK.json declares.
func TestTracedRunMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("sets up nine serving stacks")
	}
	endToEnd, perLayer := declaredMetrics(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := config{w: w, seed: 5, window: 1200 * time.Millisecond, ops: 150, setups: 1}
			plain, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.traced = true
			traced, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*result{plain, traced} {
				if !r.Correct || r.Failed != 0 {
					t.Fatalf("run not correct:\n%s", strings.Join(r.report, "\n"))
				}
			}
			if len(traced.status) != len(plain.status) || traced.Attempted != 2*plain.Attempted {
				t.Fatalf("traced replies %v (%d attempted), untraced %v (%d)", traced.status, traced.Attempted, plain.status, plain.Attempted)
			}
			for code, n := range plain.status {
				if traced.status[code] != 2*n {
					t.Fatalf("%q: %d traced, %d untraced (want twice)", code, traced.status[code], n)
				}
			}
			if traced.kbPerQuery != plain.kbPerQuery || traced.recomputedPerBatch != plain.recomputedPerBatch {
				t.Fatalf("kb_per_query %v vs %v, recomputed per batch %v vs %v",
					traced.kbPerQuery, plain.kbPerQuery, traced.recomputedPerBatch, plain.recomputedPerBatch)
			}
			if w.writer && plain.recomputedPerBatch == 0 {
				t.Fatal("update batches recomputed nothing")
			}
			if got := metricNames(plain); !reflect.DeepEqual(got, endToEnd) {
				t.Fatalf("untraced metrics %v, BENCHMARK.json declares %v", got, endToEnd)
			}
			if got := metricNames(traced); !reflect.DeepEqual(got, perLayer) {
				t.Fatalf("traced metrics %v, BENCHMARK.json declares %v", got, perLayer)
			}
		})
	}
}

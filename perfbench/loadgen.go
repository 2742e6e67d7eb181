package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"exactppr/internal/graph"
)

// The load generator. Inputs come only from the workload seed: each
// client draws its operations from its own seeded stream, and the update
// schedule is precomputed from the seed before the window opens.

type opKind uint8

const (
	opGet opKind = iota
	opBatch
	opSet
	opEdges
	numOpKinds
)

var opNames = [numOpKinds]string{"get", "batch", "set", "edges"}

const (
	topK          = 10
	batchSize     = 8 // sources in one POST /ppv batch
	setSize       = 4 // nodes in one weighted preference set
	edgesPerBatch = 8 // edges in one POST /edges batch
	maxFailures   = 5 // failed replies a phase keeps for the report
)

// op is one request the load generator sends.
type op struct {
	kind    opKind
	nodes   []int32
	weights []float64
	delta   graph.Delta
}

// request renders the op as the HTTP request a web client would send.
func (o op) request() (method, path string, body []byte) {
	switch o.kind {
	case opBatch:
		body, _ = json.Marshal(struct {
			Nodes []int32 `json:"nodes"`
			TopK  int     `json:"topk"`
		}{o.nodes, topK})
		return http.MethodPost, "/ppv", body
	case opSet:
		body, _ = json.Marshal(struct {
			Nodes   []int32   `json:"nodes"`
			Weights []float64 `json:"weights"`
			TopK    int       `json:"topk"`
			Set     bool      `json:"set"`
		}{o.nodes, o.weights, topK, true})
		return http.MethodPost, "/ppv", body
	case opEdges:
		body, _ = json.Marshal(struct {
			Insert [][2]int32 `json:"insert,omitempty"`
			Delete [][2]int32 `json:"delete,omitempty"`
		}{o.delta.Insert, o.delta.Delete})
		return http.MethodPost, "/edges", body
	}
	return http.MethodGet, "/ppv/" + strconv.Itoa(int(o.nodes[0])) + "?topk=" + strconv.Itoa(topK), nil
}

// opStream is one client's seeded operation sequence. With mixed set, 80%
// of operations are single GETs, 10% batches of 8 sources and 10% weighted
// sets of 4 distinct nodes; otherwise every operation is a single GET.
// Nodes are uniform over the graph. A sweep stream instead GETs the nodes
// of a fixed list in order.
type opStream struct {
	rng   *rand.Rand
	nodes int32
	mixed bool
	list  []int32 // sweep streams only
}

func newOpStream(seed int64, client int, nodes int, mixed bool) *opStream {
	return &opStream{rng: rand.New(rand.NewSource(seed*1_000_003 + int64(client))), nodes: int32(nodes), mixed: mixed}
}

// sweepStreams splits a seeded permutation of all nodes among clients,
// one GET per node; the remainder of an uneven split is left out. Each
// returned stream holds exactly the returned number of ops.
func sweepStreams(seed int64, clients, nodes int) ([]*opStream, int) {
	perm := rand.New(rand.NewSource(seed*1_000_003 - 2)).Perm(nodes)
	per := nodes / clients
	out := make([]*opStream, clients)
	for i := range out {
		list := make([]int32, per)
		for j := range list {
			list[j] = int32(perm[i*per+j])
		}
		out[i] = &opStream{list: list}
	}
	return out, per
}

func (s *opStream) next() op {
	if s.list != nil {
		u := s.list[0]
		s.list = s.list[1:]
		return op{kind: opGet, nodes: []int32{u}}
	}
	if s.mixed {
		switch s.rng.Intn(10) {
		case 8:
			o := op{kind: opBatch, nodes: make([]int32, batchSize)}
			for i := range o.nodes {
				o.nodes[i] = s.rng.Int31n(s.nodes)
			}
			return o
		case 9:
			o := op{kind: opSet}
			for len(o.nodes) < setSize {
				u := s.rng.Int31n(s.nodes)
				if !contains(o.nodes, u) {
					o.nodes = append(o.nodes, u)
					o.weights = append(o.weights, float64(1+s.rng.Intn(4)))
				}
			}
			return o
		}
	}
	return op{kind: opGet, nodes: []int32{s.rng.Int31n(s.nodes)}}
}

func contains[T comparable](xs []T, x T) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// edgeSchedule returns the update writer's batches: 8 edges absent from g
// inserted, then the same 8 deleted, and so on, so the graph is back to
// its original edge set after every second batch.
func edgeSchedule(g *graph.Graph, seed int64, batches int) []graph.Delta {
	rng := rand.New(rand.NewSource(seed*1_000_003 - 1))
	n := int32(g.NumNodes())
	var out []graph.Delta
	for len(out) < batches {
		var edges [][2]int32
		for len(edges) < edgesPerBatch {
			e := [2]int32{rng.Int31n(n), rng.Int31n(n)}
			if e[0] == e[1] || g.HasEdge(e[0], e[1]) || contains(edges, e) {
				continue
			}
			edges = append(edges, e)
		}
		out = append(out, graph.Delta{Insert: edges})
		if len(out) < batches {
			out = append(out, graph.Delta{Delete: edges})
		}
	}
	return out
}

// client is one load-generator client: one goroutine, one keep-alive
// connection it reuses for every request.
type client struct {
	hc   *http.Client
	base string
	rec  *recorder // traced runs: tag each request with an id
}

// newClient returns a client whose transport holds at most one
// connection and counts every dial in dials.
func newClient(base string, rec *recorder, dials *atomic.Int64) *client {
	var d net.Dialer
	tr := &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr}, base: base, rec: rec}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is one answered request; rtt runs from sending the request to
// having read the whole body.
type reply struct {
	status int
	body   []byte
	start  time.Time
	rtt    time.Duration
}

func (c *client) do(o op) (reply, error) {
	method, path, body := o.request()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return reply{}, err
	}
	var id uint64
	if c.rec != nil {
		id = c.rec.newReq()
		req.Header.Set(reqHeader, strconv.FormatUint(id, 10))
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}, err
	}
	r := reply{status: resp.StatusCode, body: b, start: start, rtt: time.Since(start)}
	if c.rec != nil {
		c.rec.add(span{req: id, kind: spanClient, aux: int64(o.kind)}, start)
	}
	return r, nil
}

// get fetches an auxiliary endpoint (/stats, /healthz).
func (c *client) get(path string) (reply, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return reply{}, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return reply{status: resp.StatusCode, body: b}, err
}

// wellFormed is the cheap check every reply gets: a 200 whose body has
// the shape the op asks for. Sampled replies are also checked for
// exactness (verify.go).
func wellFormed(o op, r reply) bool {
	if r.status != http.StatusOK {
		return false
	}
	switch o.kind {
	case opBatch:
		return bytes.Contains(r.body, []byte(`"results":[`)) && !bytes.Contains(r.body, []byte(`"failed":`))
	case opEdges:
		return bytes.Contains(r.body, []byte(`"recomputed":`))
	}
	return bytes.Contains(r.body, []byte(`"topk":[`))
}

// emptyGet reports a GET answered 200 for its node with no entries. A
// node's own PPV score is at least α, so the answer is never exact; but a
// query overlapping an update batch may sum one machine's pre-batch share
// with another's post-batch share (cluster.Coordinator.ApplyUpdates
// documents it), and when the node's slice moves between the machines
// both shares are empty.
func emptyGet(o op, r reply) bool {
	return o.kind == opGet && r.status == http.StatusOK &&
		bytes.HasPrefix(r.body, []byte(`{"node":`)) && !bytes.Contains(r.body, []byte(`"topk"`))
}

// sample is a kept reply for the exactness check.
type sample struct {
	op   op
	body []byte
}

// interval is a request's [start, end) relative to its window's start.
type interval struct{ start, end time.Duration }

// counts is a per-op-kind tally.
type counts [numOpKinds]int64

func (c counts) sum() int64 {
	var n int64
	for _, x := range c {
		n += x
	}
	return n
}

// phase accumulates one client's (or, merged, all clients') view of a
// load phase.
type phase struct {
	attempted, failed counts
	status            map[string]int // "get 200" → count
	lat               [numOpKinds][]time.Duration
	gets              []interval
	ends              []time.Duration // completion of every timed op that succeeded
	getBytes          int64           // summed share bytes of the phase's GET replies
	getBytesN         int64
	samples           []sample
	failures          []string   // the first few failed replies, for the report
	empty             []interval // empty GET answers while updates ran (loopConfig.updates)
}

func newPhase() *phase { return &phase{status: map[string]int{}} }

func (p *phase) merge(q *phase) {
	for k := range p.attempted {
		p.attempted[k] += q.attempted[k]
		p.failed[k] += q.failed[k]
		p.lat[k] = append(p.lat[k], q.lat[k]...)
	}
	for s, n := range q.status {
		p.status[s] += n
	}
	p.gets = append(p.gets, q.gets...)
	p.ends = append(p.ends, q.ends...)
	p.getBytes += q.getBytes
	p.getBytesN += q.getBytesN
	p.samples = append(p.samples, q.samples...)
	p.failures = append(p.failures, q.failures...)
	p.empty = append(p.empty, q.empty...)
}

// record books one attempted op and reports whether it succeeded. A
// transport error or malformed reply is a failure.
func (p *phase) record(o op, r reply, err error) bool {
	p.attempted[o.kind]++
	if err != nil {
		p.failed[o.kind]++
		p.status[opNames[o.kind]+" error"]++
		if len(p.failures) < maxFailures {
			p.failures = append(p.failures, fmt.Sprintf("%s %v: %v", opNames[o.kind], o.nodes, err))
		}
		return false
	}
	p.status[opNames[o.kind]+" "+strconv.Itoa(r.status)]++
	if !wellFormed(o, r) {
		p.failed[o.kind]++
		if len(p.failures) < maxFailures {
			p.failures = append(p.failures, fmt.Sprintf("%s %v: status %d, %.200s", opNames[o.kind], o.nodes, r.status, r.body))
		}
		return false
	}
	return true
}

// describe renders a phase's per-op counts.
func (p *phase) describe(name string) string {
	s := fmt.Sprintf("phase %-8s", name)
	for k := opKind(0); k < numOpKinds; k++ {
		if p.attempted[k] > 0 {
			s += fmt.Sprintf("  %s: %d attempted, %d ok, %d failed;", opNames[k], p.attempted[k], p.attempted[k]-p.failed[k], p.failed[k])
		}
	}
	return s
}

// loopConfig says how long a closed-loop phase runs and what it keeps.
type loopConfig struct {
	ops      int       // per client; 0 means run until deadline
	deadline time.Time // used when ops == 0
	timed    bool      // keep latencies and GET intervals
	bytes    bool      // sum the share bytes of GET replies
	// sampleEvery keeps every n-th reply per client for the exactness
	// check, at most maxSamples per client; 0 keeps none.
	sampleEvery, maxSamples int
	// updates is set while update batches run beside the readers: a GET
	// answered 200 with no entries is then kept in phase.empty for
	// measure to judge against the batch intervals, not failed at once.
	updates bool
}

// closedLoop runs every client on its stream, each sending its next
// request only when the previous one has been answered, and returns the
// merged phase and the time from start until the last client stopped.
func closedLoop(clients []*client, streams []*opStream, cfg loopConfig, start time.Time) (*phase, time.Duration) {
	parts := make([]*phase, len(clients))
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[i] = runClient(clients[i], streams[i], cfg, start)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	all := newPhase()
	for _, p := range parts {
		all.merge(p)
	}
	return all, elapsed
}

func runClient(c *client, s *opStream, cfg loopConfig, t0 time.Time) *phase {
	p := newPhase()
	for n := 0; cfg.ops > 0 && n < cfg.ops || cfg.ops == 0 && time.Now().Before(cfg.deadline); n++ {
		o := s.next()
		r, err := c.do(o)
		if cfg.updates && err == nil && emptyGet(o, r) {
			p.attempted[opGet]++
			p.status["get 200"]++
			st := r.start.Sub(t0)
			p.empty = append(p.empty, interval{st, st + r.rtt})
			continue
		}
		if !p.record(o, r, err) {
			continue
		}
		if cfg.timed {
			st := r.start.Sub(t0)
			p.lat[o.kind] = append(p.lat[o.kind], r.rtt)
			p.ends = append(p.ends, st+r.rtt)
			if o.kind == opGet {
				p.gets = append(p.gets, interval{st, st + r.rtt})
			}
		}
		if cfg.bytes && o.kind == opGet {
			var a struct {
				Bytes int64 `json:"bytes"`
			}
			if json.Unmarshal(r.body, &a) == nil {
				p.getBytes += a.Bytes
				p.getBytesN++
			}
		}
		if cfg.sampleEvery > 0 && n%cfg.sampleEvery == 0 && len(p.samples) < cfg.maxSamples {
			p.samples = append(p.samples, sample{o, r.body})
		}
	}
	return p
}

// writerStats is the open-loop update writer's record.
type writerStats struct {
	late       []time.Duration // send time − due time
	latency    []time.Duration // completion − due time
	busy       []interval      // [due, completion) relative to the window start
	recomputed []int64         // per applied batch, from the reply
	ph         *phase
}

// openLoopWriter sends sched[i] due at t0 + (i+1)·period, each timed from
// its due time, whether or not the previous batch ran late.
func openLoopWriter(c *client, sched []graph.Delta, t0 time.Time, period time.Duration) *writerStats {
	w := &writerStats{ph: newPhase()}
	for i, d := range sched {
		due := t0.Add(time.Duration(i+1) * period)
		time.Sleep(time.Until(due))
		w.late = append(w.late, time.Since(due))
		o := op{kind: opEdges, delta: d}
		r, err := c.do(o)
		if !w.ph.record(o, r, err) {
			continue
		}
		end := r.start.Add(r.rtt)
		var a struct {
			Recomputed int64 `json:"recomputed"`
		}
		if err := json.Unmarshal(r.body, &a); err != nil {
			w.ph.failed[opEdges]++
			continue
		}
		w.latency = append(w.latency, end.Sub(due))
		w.busy = append(w.busy, interval{due.Sub(t0), end.Sub(t0)})
		w.recomputed = append(w.recomputed, a.Recomputed)
	}
	return w
}

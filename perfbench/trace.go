package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"exactppr/internal/cluster"
	"exactppr/internal/core"
	"exactppr/internal/graph"
	"exactppr/internal/sparse"
)

// Tracing records spans from the benchmark's own files, around the calls
// into each layer's public interfaces; nothing inside the program is
// instrumented. A traced request carries its id in reqHeader; the
// gateway handler wrapper moves it into the request context, which the
// gateway hands to the backend Querier and the coordinator hands on to
// every machine call, so all spans of one request share the id.

const reqHeader = "X-Perfbench-Req"

type spanKind uint8

const (
	spanClient   spanKind = iota // client round trip; aux = op kind
	spanQuery                    // gateway → coordinator Querier call; aux = share bytes
	spanCall                     // coordinator → machine call; aux = worker compute ns
	spanUpdate                   // Coordinator.ApplyUpdates behind POST /edges
	spanProbe                    // SupportsUpdates probe behind POST /edges
	spanWorkerUp                 // one worker's ApplyUpdates; aux = vectors recomputed
)

var spanNames = [...]string{"client", "query", "call", "update", "probe", "worker_update"}

// span is one timed call. Spans of a request share req; the layer order
// client → query → call gives each span's parent.
type span struct {
	req        uint64
	kind       spanKind
	machine    int8
	start, dur int64 // ns; start is relative to the recorder's creation
	aux        int64
}

// maxSpans bounds the in-memory span buffer (40 bytes a span); spans past
// it are counted as dropped and their requests left out of the analysis.
const maxSpans = 1 << 21

// recorder keeps the spans of one traced stack in memory until the run
// ends, plus worker-side fold counters (workers see no request ids: the
// TCP protocol does not carry them).
type recorder struct {
	t0   time.Time
	next atomic.Uint64

	mu      sync.Mutex
	spans   []span
	dropped int

	foldNs, folds, foldEntries atomic.Int64
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, maxSpans)}
}

func (r *recorder) newReq() uint64 { return r.next.Add(1) }

// add records a span that started at start and ends now.
func (r *recorder) add(s span, start time.Time) {
	s.start = start.Sub(r.t0).Nanoseconds()
	s.dur = time.Since(start).Nanoseconds()
	r.mu.Lock()
	if len(r.spans) < cap(r.spans) {
		r.spans = append(r.spans, s)
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

type reqKey struct{}

func reqOf(ctx context.Context) uint64 {
	id, _ := ctx.Value(reqKey{}).(uint64)
	return id
}

// handler moves the client's request id into the request context.
func (r *recorder) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if id, err := strconv.ParseUint(req.Header.Get(reqHeader), 10, 64); err == nil {
			req = req.WithContext(context.WithValue(req.Context(), reqKey{}, id))
		}
		h.ServeHTTP(w, req)
	})
}

// coordBackend is what the gateway type-asserts on the stacks' backends
// (*cluster.Coordinator, cluster.DiskCluster): the traced wrapper must
// forward all of it, or POST /edges would answer 501.
type coordBackend interface {
	cluster.Querier
	cluster.Updater
	SupportsUpdates() bool
	NumMachines() int
}

// backend wraps the gateway's Querier; with a nil recorder it returns b
// unchanged. A backend with DiskStats keeps it, so /stats keeps its disk
// object.
func (r *recorder) backend(b coordBackend) cluster.Querier {
	if r == nil {
		return b
	}
	t := &tracedBackend{b: b, rec: r}
	if d, ok := b.(interface{ DiskStats() core.DiskStats }); ok {
		return &tracedDiskBackend{t, d}
	}
	return t
}

type tracedBackend struct {
	b   coordBackend
	rec *recorder
}

func (t *tracedBackend) QueryCtx(ctx context.Context, u int32) (*cluster.QueryStats, error) {
	start := time.Now()
	qs, err := t.b.QueryCtx(ctx, u)
	t.rec.add(span{req: reqOf(ctx), kind: spanQuery, aux: bytesOf(qs)}, start)
	return qs, err
}

func (t *tracedBackend) QuerySetCtx(ctx context.Context, p core.Preference) (*cluster.QueryStats, error) {
	start := time.Now()
	qs, err := t.b.QuerySetCtx(ctx, p)
	t.rec.add(span{req: reqOf(ctx), kind: spanQuery, aux: bytesOf(qs)}, start)
	return qs, err
}

func (t *tracedBackend) ApplyUpdates(ctx context.Context, d graph.Delta) (cluster.UpdateStats, error) {
	start := time.Now()
	us, err := t.b.ApplyUpdates(ctx, d)
	t.rec.add(span{req: reqOf(ctx), kind: spanUpdate, aux: us.Recomputed}, start)
	return us, err
}

func (t *tracedBackend) SupportsUpdates() bool {
	start := time.Now()
	ok := t.b.SupportsUpdates()
	t.rec.add(span{kind: spanProbe}, start)
	return ok
}

func (t *tracedBackend) NumMachines() int { return t.b.NumMachines() }

type tracedDiskBackend struct {
	*tracedBackend
	d interface{ DiskStats() core.DiskStats }
}

func (t *tracedDiskBackend) DiskStats() core.DiskStats { return t.d.DiskStats() }

func bytesOf(qs *cluster.QueryStats) int64 {
	if qs == nil {
		return 0
	}
	return qs.BytesReceived
}

// updatableMachine is a coordinator-side machine that takes updates and
// answers the coordinator's capability probe (cluster.Pool).
type updatableMachine interface {
	cluster.Machine
	cluster.Updater
	SupportsUpdates() bool
}

// machine wraps one coordinator-side machine; with a nil recorder it
// returns m unchanged. The update methods are forwarded only when m has
// them, so Coordinator.SupportsUpdates answers as it would untraced.
func (r *recorder) machine(m cluster.Machine, index int) cluster.Machine {
	if r == nil {
		return m
	}
	t := &tracedMachine{m: m, index: int8(index), rec: r}
	if um, ok := m.(updatableMachine); ok {
		return &tracedUpdatableMachine{t, um}
	}
	return t
}

type tracedMachine struct {
	m     cluster.Machine
	index int8
	rec   *recorder
}

func (t *tracedMachine) QueryShare(ctx context.Context, u int32) ([]byte, time.Duration, error) {
	start := time.Now()
	p, c, err := t.m.QueryShare(ctx, u)
	t.rec.add(span{req: reqOf(ctx), kind: spanCall, machine: t.index, aux: int64(c)}, start)
	return p, c, err
}

func (t *tracedMachine) QuerySetShare(ctx context.Context, pref core.Preference) ([]byte, time.Duration, error) {
	start := time.Now()
	p, c, err := t.m.QuerySetShare(ctx, pref)
	t.rec.add(span{req: reqOf(ctx), kind: spanCall, machine: t.index, aux: int64(c)}, start)
	return p, c, err
}

type tracedUpdatableMachine struct {
	*tracedMachine
	u updatableMachine
}

func (t *tracedUpdatableMachine) ApplyUpdates(ctx context.Context, d graph.Delta) (cluster.UpdateStats, error) {
	return t.u.ApplyUpdates(ctx, d)
}

func (t *tracedUpdatableMachine) SupportsUpdates() bool { return t.u.SupportsUpdates() }

// fold returns a worker-side PackedQuerier that times each fold of the
// shard src returns (src is re-read per call: a live shard swaps its
// snapshot on every update batch). cluster.LocalMachine over it makes the
// same fold and encode calls as ShardMachine and LiveShard.
func (r *recorder) fold(src func() cluster.PackedQuerier) cluster.PackedQuerier {
	return &timedFold{src: src, rec: r}
}

type timedFold struct {
	src func() cluster.PackedQuerier
	rec *recorder
}

func (f *timedFold) QueryPacked(u int32) (sparse.Packed, error) {
	start := time.Now()
	v, err := f.src().QueryPacked(u)
	f.rec.countFold(start, v)
	return v, err
}

func (f *timedFold) QuerySetPacked(p core.Preference) (sparse.Packed, error) {
	start := time.Now()
	v, err := f.src().QuerySetPacked(p)
	f.rec.countFold(start, v)
	return v, err
}

func (r *recorder) countFold(start time.Time, v sparse.Packed) {
	r.foldNs.Add(time.Since(start).Nanoseconds())
	r.folds.Add(1)
	r.foldEntries.Add(int64(v.Len()))
}

// workerUpdater times a worker's update batches (capability probes, which
// are empty deltas, are forwarded untimed).
func (r *recorder) workerUpdater(u cluster.Updater, index int) cluster.Updater {
	return &timedUpdater{u: u, index: int8(index), rec: r}
}

type timedUpdater struct {
	u     cluster.Updater
	index int8
	rec   *recorder
}

func (t *timedUpdater) ApplyUpdates(ctx context.Context, d graph.Delta) (cluster.UpdateStats, error) {
	if d.Len() == 0 {
		return t.u.ApplyUpdates(ctx, d)
	}
	start := time.Now()
	us, err := t.u.ApplyUpdates(ctx, d)
	t.rec.add(span{kind: spanWorkerUp, machine: t.index, aux: us.Recomputed}, start)
	return us, err
}

// snapshot returns the recorded spans; call it once no request is in
// flight.
func (r *recorder) snapshot() ([]span, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans, r.dropped
}

// writeSpans dumps the spans as CSV (req,kind,machine,start_ns,dur_ns,aux).
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "req,kind,machine,start_ns,dur_ns,aux")
	for _, s := range spans {
		fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d\n", s.req, spanNames[s.kind], s.machine, s.start, s.dur, s.aux)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layers is the per-layer breakdown of the single-GET requests of a
// traced window.
type layers struct {
	gets, complete int

	rttMean, gatewaySelf, coordSelf, wireSelf, computeCrit float64 // mean µs
	straggler                                              float64 // mean µs

	coordQuery, wireCall, workerCompute []time.Duration

	foldUs, encodeUs, entriesPerShare float64

	updateCoord, updateWorker []time.Duration
	recomputed                []int64
	probes                    time.Duration
	dropped                   int
}

// analyze correlates the spans of every single GET by request id and
// splits its round trip along the blocking path: gateway self time
// (round trip − Querier call), coordinator self time (Querier call −
// slowest machine call), wire self time (slowest call − its worker
// compute), and the slowest worker's compute.
func (r *recorder) analyze() layers {
	spans, dropped := r.snapshot()
	sorted := make([]span, len(spans))
	copy(sorted, spans)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].req != sorted[j].req {
			return sorted[i].req < sorted[j].req
		}
		return sorted[i].kind < sorted[j].kind
	})

	var l layers
	l.dropped = dropped
	var rttSum, gwSum, coordSum, wireSum, critSum, stragSum float64
	var computeNs, callCount int64
	for i := 0; i < len(sorted); {
		j := i
		for j < len(sorted) && sorted[j].req == sorted[i].req {
			j++
		}
		group := sorted[i:j]
		i = j
		for _, s := range group {
			switch s.kind {
			case spanUpdate:
				l.updateCoord = append(l.updateCoord, time.Duration(s.dur))
			case spanProbe:
				l.probes += time.Duration(s.dur)
			case spanWorkerUp:
				l.updateWorker = append(l.updateWorker, time.Duration(s.dur))
			case spanCall:
				computeNs += s.aux
				callCount++
			}
		}
		if group[0].req == 0 || group[0].kind != spanClient || opKind(group[0].aux) != opGet {
			continue
		}
		client := group[0]
		l.gets++
		rttSum += float64(client.dur)
		var query *span
		var calls []span
		for k := range group[1:] {
			s := &group[1+k]
			switch s.kind {
			case spanQuery:
				query = s
			case spanCall:
				calls = append(calls, *s)
			}
		}
		if query == nil || len(calls) != machines {
			continue
		}
		l.complete++
		l.coordQuery = append(l.coordQuery, time.Duration(query.dur))
		slow, fast := calls[0], calls[0]
		for _, c := range calls {
			l.wireCall = append(l.wireCall, time.Duration(c.dur))
			l.workerCompute = append(l.workerCompute, time.Duration(c.aux))
			if c.dur > slow.dur {
				slow = c
			}
			if c.dur < fast.dur {
				fast = c
			}
		}
		gwSum += float64(client.dur - query.dur)
		coordSum += float64(query.dur - slow.dur)
		wireSum += float64(slow.dur - slow.aux)
		critSum += float64(slow.aux)
		stragSum += float64(slow.dur - fast.dur)
	}
	if l.gets > 0 {
		l.rttMean = rttSum / float64(l.gets) / 1e3
	}
	if l.complete > 0 {
		n := float64(l.complete) * 1e3
		l.gatewaySelf, l.coordSelf, l.wireSelf = gwSum/n, coordSum/n, wireSum/n
		l.computeCrit, l.straggler = critSum/n, stragSum/n
	}
	if folds := r.folds.Load(); folds > 0 {
		l.foldUs = float64(r.foldNs.Load()) / float64(folds) / 1e3
		l.entriesPerShare = float64(r.foldEntries.Load()) / float64(folds)
	}
	if callCount > 0 {
		l.encodeUs = float64(computeNs)/float64(callCount)/1e3 - l.foldUs
	}
	return l
}

// selfSum is the blocking-path self times summed; it should match the
// mean client round trip.
func (l layers) selfSum() float64 {
	return l.gatewaySelf + l.coordSelf + l.wireSelf + l.computeCrit
}

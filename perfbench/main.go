// Command perfbench is the repository's end-to-end serving benchmark. It
// runs the real serving stack in-process on loopback, wired as the
// matching pprserve mode wires it, drives it over HTTP with a seeded load
// generator, checks the answers for exactness, and prints its metrics as
// one JSON object on the last line of standard output.
//
//	perfbench --workload tcp-read --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//	tcp-read      two TCP workers behind the coordinator and gateway; two
//	              closed-loop clients send 80% GET /ppv/{u}, 10% batches of
//	              8 sources, 10% weighted sets of 4 nodes
//	disk-uniform  the mmap disk store (default 1,024-vector cache) split
//	              across two in-process machines behind the gateway; two
//	              closed-loop clients send GET /ppv/{u} only
//	tcp-update    tcp-read's stack with updatable workers; one closed-loop
//	              GET client beside an open-loop POST /edges writer
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs an untraced
// window (for the tracing overhead) and then a traced one on a fresh
// stack, and reports per-layer metrics. Build and run it with
// perfbench/run.sh from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"exactppr/internal/core"
	"exactppr/internal/graph"
)

type stackKind int

const (
	stackTCP        stackKind = iota // pprserve -shard i -of 2 workers + -coordinator gateway
	stackDisk                        // pprserve -disk -of 2 -http local gateway
	stackTCPUpdates                  // as stackTCP with -updates workers
)

type workload struct {
	name   string
	stack  stackKind
	mixed  bool // 80% GET, 10% batch, 10% set; otherwise GET only
	writer bool // an open-loop POST /edges writer runs beside the readers
}

var workloads = []workload{
	{name: "tcp-read", stack: stackTCP, mixed: true},
	{name: "disk-uniform", stack: stackDisk},
	{name: "tcp-update", stack: stackTCPUpdates, writer: true},
}

const (
	buildDir = ".bench_build"
	// setupReps is how many times a run sets the stack up; setup_s is the
	// median, and only the last stack serves.
	setupReps = 3
	// warmupOps is each reader's untimed warm-up on its op stream. Before
	// it, the readers GET every node once (a seeded sweep); those replies
	// give kb_per_query, the mean over all nodes, as uniform traffic sees it.
	warmupOps = 2000
	// statSlice is the length of the slices the measured window is cut
	// into: qps and the GET latency percentiles are each slice's value,
	// median over the window's full slices, so a burst of contention on
	// a shared host moves one slice, not the result. One update period,
	// so every slice but the first holds one tcp-update batch.
	statSlice = updatePeriod
	// updatePeriod spaces the writer's batches. A batch keeps both cores
	// busy for ~0.1 s; at 400 ms the reads stalled behind recompute set
	// the GET p99, which then moved 25–30% between runs on a shared host.
	updatePeriod = time.Second
	sampleEvery  = 64
	maxSamples   = 150
	// updateReaders is tcp-update's closed-loop reader count; the writer
	// is the second client.
	updateReaders = 1
)

type config struct {
	w      workload
	seed   int64
	window time.Duration
	traced bool
	// ops > 0 replaces the time window with this many ops per reader, so
	// two runs send identical requests (tests).
	ops    int
	setups int
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	report []string
	// status tallies every reply by op and code, plus the /stats and
	// /healthz observations, across all windows.
	status             map[string]int
	kbPerQuery         float64
	recomputedPerBatch float64
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{v, unit}
}

func (r *result) printf(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

func main() {
	name := flag.String("workload", "", "workload: tcp-read, disk-uniform or tcp-update")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "measured window, seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()

	cfg := config{seed: *seed, window: time.Duration(*seconds) * time.Second, traced: *trace == 1, setups: setupReps}
	var ok bool
	for _, w := range workloads {
		if w.name == *name {
			cfg.w, ok = w, true
		}
	}
	if !ok || *seconds < 1 || *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, line := range res.report {
		fmt.Println(line)
		if !res.Correct {
			// The report names the failed replies and wrong answers.
			fmt.Fprintln(os.Stderr, line)
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run sets the stack up cfg.setups times and measures the last one; a
// traced run then measures a second, traced stack.
func run(cfg config) (*result, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "fixture.store")

	var times []setupTimes
	var st *stack
	for i := 0; i < cfg.setups; i++ {
		if st != nil {
			st.Close()
		}
		// Each set-up starts from a collected heap, so none pays for the
		// garbage the one before it left.
		runtime.GC()
		s, t, err := setUp(cfg.w, dir, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		st, times = s, append(times, t)
	}
	heap := liveHeapMB()
	plainCfg := cfg
	if cfg.traced && cfg.ops == 0 {
		plainCfg.window = cfg.window / 2
	}
	plain, err := measure(st, plainCfg, path)
	st.Close()
	if err != nil {
		return nil, err
	}

	res := &result{Correct: true, Metrics: map[string]metric{}, status: map[string]int{}}
	res.printf("workload %s, seed %d, trace %v: %d machines", cfg.w.name, cfg.seed, cfg.traced, machines)
	res.printf("set-up (median of %d): %.3fs = graph %.3fs, partition %.3fs, precompute %.3fs, save %.3fs, load %.3fs, split %.3fs, dial %.3fs",
		len(times), medianSetup(times, func(t setupTimes) time.Duration { return t.total }).Seconds(),
		medianSetup(times, func(t setupTimes) time.Duration { return t.graph }).Seconds(),
		medianSetup(times, func(t setupTimes) time.Duration { return t.partition }).Seconds(),
		medianSetup(times, func(t setupTimes) time.Duration { return t.precompute }).Seconds(),
		medianSetup(times, func(t setupTimes) time.Duration { return t.save }).Seconds(),
		medianSetup(times, func(t setupTimes) time.Duration { return t.load }).Seconds(),
		medianSetup(times, func(t setupTimes) time.Duration { return t.split }).Seconds(),
		medianSetup(times, func(t setupTimes) time.Duration { return t.dial }).Seconds())
	res.addWindow("untraced", plain)
	if !cfg.traced {
		res.endToEnd(times, plain, heap)
		return res, nil
	}

	rec := newRecorder()
	st, _, err = setUp(cfg.w, dir, rec)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	traced, err := measure(st, cfg, path)
	st.Close()
	if err != nil {
		return nil, err
	}
	res.addWindow("traced", traced)
	l := rec.analyze()
	res.perLayer(times, plain, traced, l)
	spans, _ := rec.snapshot()
	dump := filepath.Join(buildDir, "traces", cfg.w.name+".csv")
	if err := os.MkdirAll(filepath.Dir(dump), 0o755); err != nil {
		return nil, err
	}
	if err := writeSpans(dump, spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	res.printf("spans: %d written to %s (%d dropped)", len(spans), dump, l.dropped)
	return res, nil
}

// window is one measured load window and its checks.
type window struct {
	sweep, warm, meas *phase
	window, elapsed   time.Duration
	writer            *writerStats // tcp-update only
	mixed             int          // empty GET answers that overlapped a batch
	disk              core.DiskStats
	checked           int
	wrong             []string
	dials             int64
	clients           int
	aux               map[string]int
}

// ok counts the ops of the measured window that succeeded.
func (w *window) ok() int64 {
	n := w.meas.attempted.sum() - w.meas.failed.sum()
	if w.writer != nil {
		n += int64(len(w.writer.latency))
	}
	return n
}

// measure warms the stack up, runs the measured window, and checks the
// answers against a reference store loaded from the same file.
func measure(st *stack, cfg config, path string) (*window, error) {
	ref, err := core.LoadFile(path)
	if err != nil {
		return nil, fmt.Errorf("load reference: %w", err)
	}
	var live *core.LiveStore
	var sched []graph.Delta
	if cfg.w.writer {
		live = core.NewLiveStore(ref)
		sched = edgeSchedule(ref.H.G, cfg.seed, scheduleLen(cfg.window))
	}

	readers := min(2, runtime.NumCPU())
	if cfg.w.writer {
		readers = updateReaders
	}
	var dials atomic.Int64
	clients := make([]*client, readers)
	streams := make([]*opStream, readers)
	for i := range clients {
		clients[i] = newClient(st.url, st.rec, &dials)
		defer clients[i].close()
		streams[i] = newOpStream(cfg.seed, i, ref.H.G.NumNodes(), cfg.w.mixed)
	}
	win := &window{clients: readers, window: cfg.window, aux: map[string]int{}}
	sweep, per := sweepStreams(cfg.seed, readers, ref.H.G.NumNodes())
	win.sweep, _ = closedLoop(clients, sweep, loopConfig{ops: per, bytes: true}, time.Now())
	win.warm, _ = closedLoop(clients, streams, loopConfig{ops: warmupOps}, time.Now())

	var before core.DiskStats
	if st.disk != nil {
		before = st.disk.Stats()
	}
	runtime.GC() // the window does not pay for the sweep's and warm-up's garbage
	t0 := time.Now()
	lc := loopConfig{ops: cfg.ops, deadline: t0.Add(cfg.window), timed: true, sampleEvery: sampleEvery, maxSamples: maxSamples, updates: cfg.w.writer}
	var wg sync.WaitGroup
	if cfg.w.writer {
		wc := newClient(st.url, st.rec, &dials)
		defer wc.close()
		win.clients++
		wg.Add(1)
		go func() {
			defer wg.Done()
			win.writer = openLoopWriter(wc, sched, t0, updatePeriod)
		}()
	}
	win.meas, win.elapsed = closedLoop(clients, streams, lc, t0)
	wg.Wait()
	if win.writer != nil {
		win.judgeEmpty()
	}
	if st.disk != nil {
		after := st.disk.Stats()
		win.disk = core.DiskStats{
			CacheHits:      after.CacheHits - before.CacheHits,
			CacheMisses:    after.CacheMisses - before.CacheMisses,
			CoalescedReads: after.CoalescedReads - before.CoalescedReads,
			Reads:          after.Reads - before.Reads,
			Evictions:      after.Evictions - before.Evictions,
		}
	}

	for _, p := range []string{"/stats", "/healthz"} {
		r, err := clients[0].get(p)
		if err != nil {
			return nil, fmt.Errorf("GET %s: %w", p, err)
		}
		win.aux[fmt.Sprintf("%s %d", p, r.status)]++
		var body map[string]any
		if json.Unmarshal(r.body, &body) == nil {
			_, hasDisk := body["disk"]
			win.aux[fmt.Sprintf("%s disk=%v machines=%v", p, hasDisk, body["machines"])]++
		}
	}
	win.dials = dials.Load()

	c := &checker{ref: ref}
	if live != nil {
		// Reads overlapping a batch may sum shares from different batches
		// (cluster.Coordinator.ApplyUpdates documents it), so tcp-update is
		// checked once the writer is done: the sampled nodes are asked
		// again and compared with a reference that replayed the schedule.
		for _, d := range sched {
			if _, err := live.ApplyUpdates(d, 0); err != nil {
				return nil, fmt.Errorf("reference replay: %w", err)
			}
		}
		c.ref = live.Store()
		for _, s := range win.meas.samples {
			r, err := clients[0].do(s.op)
			if err != nil || !wellFormed(s.op, r) {
				c.fail("re-query %v: %v (status %d)", s.op.nodes, err, r.status)
				continue
			}
			c.check(sample{s.op, r.body})
		}
	} else {
		for _, s := range win.meas.samples {
			c.check(s)
		}
	}
	win.checked, win.wrong = c.checked, c.wrong
	return win, nil
}

// judgeEmpty sorts the measured window's empty GET answers: one that
// overlapped a batch in flight is a mixed-snapshot read (see emptyGet),
// any other is a failure.
func (w *window) judgeEmpty() {
	busy := w.writer.busy
	for _, g := range w.meas.empty {
		i := sort.Search(len(busy), func(i int) bool { return busy[i].end > g.start })
		if i < len(busy) && busy[i].start < g.end {
			w.mixed++
			continue
		}
		w.meas.failed[opGet]++
		if len(w.meas.failures) < maxFailures {
			w.meas.failures = append(w.meas.failures, fmt.Sprintf("get: empty answer at %v–%v, no batch in flight", g.start, g.end))
		}
	}
}

// scheduleLen is the number of update batches a window holds: one per
// period, the last due a period before the window closes.
func scheduleLen(window time.Duration) int {
	return max(1, int(window/updatePeriod)-1)
}

// addWindow books a window's counts and checks into the result and the
// report.
func (r *result) addWindow(name string, w *window) {
	phases := []*phase{w.sweep, w.warm, w.meas}
	if w.writer != nil {
		phases = append(phases, w.writer.ph)
	}
	var attempted, failed int64
	for _, p := range phases {
		attempted += p.attempted.sum()
		failed += p.failed.sum()
		for s, n := range p.status {
			r.status[s] += n
		}
		for _, f := range p.failures {
			r.printf("[%s]   failed: %s", name, f)
		}
	}
	for s, n := range w.aux {
		r.status[s] += n
	}
	failed += int64(len(w.wrong))
	r.Attempted += attempted
	r.Failed += failed
	dialsOK := w.dials <= int64(w.clients)
	r.Correct = r.Correct && failed == 0 && dialsOK

	r.printf("[%s] %s", name, w.sweep.describe("sweep"))
	r.printf("[%s] %s", name, w.warm.describe("warm-up"))
	r.printf("[%s] %s", name, w.meas.describe("measured"))
	if w.writer != nil {
		r.printf("[%s] %s", name, w.writer.ph.describe("writer"))
	}
	r.printf("[%s] window %.2fs, %d clients, %d dials (limit %d): %s", name, w.elapsed.Seconds(), w.clients, w.dials, w.clients, okText(dialsOK))
	for k := opKind(0); k < numOpKinds; k++ {
		if lat := w.meas.lat[k]; len(lat) > 0 {
			r.printf("[%s] %s latency: p50 %.1fµs, p99 %.1fµs (n=%d)", name, opNames[k], us(percentile(lat, .5)), us(percentile(lat, .99)), len(lat))
		}
	}
	r.printf("[%s] qps %.1f; exactness: %d answers checked, %d wrong; fail_frac %.3g", name,
		float64(w.ok())/w.elapsed.Seconds(), w.checked, len(w.wrong), float64(failed)/float64(max(1, attempted)))
	for i, msg := range w.wrong {
		if i == 5 {
			r.printf("[%s]   … %d more", name, len(w.wrong)-i)
			break
		}
		r.printf("[%s]   wrong: %s", name, msg)
	}
	r.kbPerQuery = float64(w.sweep.getBytes) / float64(max(1, w.sweep.getBytesN)) / 1024
	if ws := w.writer; ws != nil {
		r.recomputedPerBatch = meanInt(ws.recomputed)
		during, idle := splitReads(w.meas, ws.busy)
		r.printf("[%s] updates: %d batches, p50 %.1fms from due time, %.0f vectors recomputed per batch; late p50 %.2fms, max %.2fms",
			name, len(ws.latency), ms(percentile(ws.latency, .5)), r.recomputedPerBatch,
			ms(percentile(ws.late, .5)), ms(percentile(ws.late, 1)))
		r.printf("[%s] reads: p99 %.1fµs during batches (n=%d), %.1fµs between them (n=%d); %d empty answers overlapped a batch (mixed snapshots)", name,
			us(percentile(during, .99)), len(during), us(percentile(idle, .99)), len(idle), w.mixed)
	}
}

// endToEnd sets the end-to-end metrics of an untraced run.
func (r *result) endToEnd(times []setupTimes, w *window, heap float64) {
	r.set("setup_s", medianSetup(times, func(t setupTimes) time.Duration { return t.total }).Seconds(), "s")
	sl := w.slices()
	p50, p99, qps := make([]float64, len(sl)), make([]float64, len(sl)), make([]float64, len(sl))
	for i, s := range sl {
		p50[i], p99[i] = us(percentile(s.gets, .5)), us(percentile(s.gets, .99))
		qps[i] = float64(s.done) / s.length.Seconds()
	}
	r.set("query_p50_us", median(p50), "us")
	r.set("query_p99_us", median(p99), "us")
	r.set("qps", median(qps), "1/s")
	r.set("kb_per_query", r.kbPerQuery, "KB")
	r.set("heap_mb", heap, "MB")
	r.printf("medians over %d slices of %v: GET p50 %.1fµs (slices %.1f–%.1f), p99 %.1fµs (%.1f–%.1f), qps %.1f (%.1f–%.1f)",
		len(sl), statSlice, median(p50), slices.Min(p50), slices.Max(p50), median(p99), slices.Min(p99), slices.Max(p99),
		median(qps), slices.Min(qps), slices.Max(qps))
	r.printf("heap after set-up: %.2f MB live; kb_per_query %.4f (n=%d sweep GETs)", heap, r.kbPerQuery, w.sweep.getBytesN)
}

// slice is one statSlice of the measured window: the latencies of the
// GETs sent in it and the number of ops (the writer's batches too) that
// completed in it.
type slice struct {
	gets   []time.Duration
	done   int
	length time.Duration
}

// slices cuts the measured window into its full statSlices. A window too
// short for three (or one bounded by an op count) is one slice.
func (w *window) slices() []slice {
	n := int(w.window / statSlice)
	if n < 3 {
		return []slice{{gets: w.meas.lat[opGet], done: int(w.ok()), length: w.elapsed}}
	}
	out := make([]slice, n)
	for i := range out {
		out[i].length = statSlice
	}
	for _, g := range w.meas.gets {
		if i := int(g.start / statSlice); i < n {
			out[i].gets = append(out[i].gets, g.end-g.start)
		}
	}
	ends := slices.Clone(w.meas.ends)
	if w.writer != nil {
		for _, b := range w.writer.busy {
			ends = append(ends, b.end)
		}
	}
	for _, e := range ends {
		if i := int(e / statSlice); i < n {
			out[i].done++
		}
	}
	return out
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// perLayer sets the per-layer metrics of a traced run and prints the
// self-time table.
func (r *result) perLayer(times []setupTimes, plain, traced *window, l layers) {
	med := func(f func(setupTimes) time.Duration) float64 { return medianSetup(times, f).Seconds() }
	r.set("setup.graph_s", med(func(t setupTimes) time.Duration { return t.graph }), "s")
	r.set("setup.partition_s", med(func(t setupTimes) time.Duration { return t.partition }), "s")
	r.set("setup.precompute_s", med(func(t setupTimes) time.Duration { return t.precompute }), "s")
	r.set("setup.save_s", med(func(t setupTimes) time.Duration { return t.save }), "s")
	r.set("setup.load_s", med(func(t setupTimes) time.Duration { return t.load }), "s")
	r.set("setup.split_s", med(func(t setupTimes) time.Duration { return t.split }), "s")
	r.set("setup.dial_s", med(func(t setupTimes) time.Duration { return t.dial }), "s")
	r.set("precompute.pushes_per_vector", times[0].pushesPerVector, "count")
	r.set("precompute.densefrac", times[0].denseFrac, "frac")
	r.set("store.file_mb", times[0].fileMB, "MB")

	r.set("gateway.self_us", l.gatewaySelf, "us")
	r.set("coord.query_us", us(percentile(l.coordQuery, .5)), "us")
	r.set("coord.query_p99_us", us(percentile(l.coordQuery, .99)), "us")
	r.set("coord.self_us", l.coordSelf, "us")
	r.set("coord.straggler_us", l.straggler, "us")
	r.set("wire.call_us", us(percentile(l.wireCall, .5)), "us")
	r.set("wire.call_p99_us", us(percentile(l.wireCall, .99)), "us")
	r.set("wire.self_us", l.wireSelf, "us")
	r.set("worker.compute_us", us(percentile(l.workerCompute, .5)), "us")
	r.set("worker.compute_p99_us", us(percentile(l.workerCompute, .99)), "us")
	r.set("fold.us", l.foldUs, "us")
	r.set("encode.us", l.encodeUs, "us")
	r.set("fold.entries_per_share", l.entriesPerShare, "count")

	gets := float64(max(1, len(traced.meas.lat[opGet])))
	d := traced.disk
	hitRatio := 0.0
	if probes := d.CacheHits + d.CacheMisses; probes > 0 {
		hitRatio = float64(d.CacheHits) / float64(probes)
	}
	r.set("disk.hit_ratio", hitRatio, "frac")
	r.set("disk.reads_per_query", float64(d.Reads)/gets, "count")
	r.set("disk.coalesced_per_query", float64(d.CoalescedReads)/gets, "count")
	r.set("disk.evictions_per_query", float64(d.Evictions)/gets, "count")
	r.set("update.recomputed_per_batch", r.recomputedPerBatch, "count")

	plainQPS := float64(plain.ok()) / plain.elapsed.Seconds()
	tracedQPS := float64(traced.ok()) / traced.elapsed.Seconds()
	overhead := 1 - tracedQPS/plainQPS
	r.set("trace.overhead_frac", overhead, "frac")
	total := l.selfSum()
	selfFrac := 0.0
	if l.rttMean > 0 {
		selfFrac = total / l.rttMean
	}
	r.set("trace.selfsum_frac", selfFrac, "frac")

	r.printf("self time per single GET (mean over %d of %d GETs with complete spans):", l.complete, l.gets)
	rows := []struct {
		name string
		v    float64
	}{
		{"gateway (HTTP, parse, top-k, JSON)", l.gatewaySelf},
		{"coordinator (fan-out, decode, merge)", l.coordSelf},
		{"wire (slowest call − its compute)", l.wireSelf},
		{"worker (slowest machine's compute)", l.computeCrit},
	}
	dominant := rows[0]
	for _, row := range rows {
		r.printf("  %-38s %8.2fµs %5.1f%%", row.name, row.v, 100*row.v/total)
		if row.v > dominant.v {
			dominant = row
		}
	}
	r.printf("  worker compute over all calls: fold %.2fµs + encode %.2fµs, %.0f entries per share", l.foldUs, l.encodeUs, l.entriesPerShare)
	r.printf("  sum %.2fµs vs mean client round trip %.2fµs: %.1f%% (%s: within 10%%)", total, l.rttMean, 100*selfFrac, okText(selfFrac > .9 && selfFrac < 1.1))
	r.printf("dominant layer: %s", dominant.name)
	r.printf("coordinator query p50 %.1fµs p99 %.1fµs (n=%d); machine call p50 %.1fµs p99 %.1fµs, worker compute p50 %.1fµs p99 %.1fµs (n=%d); straggler %.2fµs",
		us(percentile(l.coordQuery, .5)), us(percentile(l.coordQuery, .99)), len(l.coordQuery),
		us(percentile(l.wireCall, .5)), us(percentile(l.wireCall, .99)),
		us(percentile(l.workerCompute, .5)), us(percentile(l.workerCompute, .99)), len(l.wireCall), l.straggler)
	if traced.disk != (core.DiskStats{}) {
		r.printf("disk: hit ratio %.4f; per query %.3f reads, %.4f coalesced, %.3f evictions",
			hitRatio, float64(d.Reads)/gets, float64(d.CoalescedReads)/gets, float64(d.Evictions)/gets)
	}
	if n := len(l.updateCoord); n > 0 {
		r.printf("update: coordinator p50 %.1fms (n=%d), worker p50 %.1fms (n=%d), probes %.2fms per batch, %.0f vectors recomputed per batch",
			ms(percentile(l.updateCoord, .5)), n, ms(percentile(l.updateWorker, .5)), len(l.updateWorker),
			ms(l.probes/time.Duration(n)), r.recomputedPerBatch)
	}
	r.printf("tracing overhead: qps %.1f untraced vs %.1f traced (%.1f%%)", plainQPS, tracedQPS, 100*overhead)
}

// splitReads divides the measured GET latencies into those overlapping
// an update batch in flight and the rest.
func splitReads(p *phase, busy []interval) (during, idle []time.Duration) {
	for _, g := range p.gets {
		// busy is in due-time order and batches do not overlap, so the
		// first batch ending after g starts is the only candidate.
		i := sort.Search(len(busy), func(i int) bool { return busy[i].end > g.start })
		if i < len(busy) && busy[i].start < g.end {
			during = append(during, g.end-g.start)
		} else {
			idle = append(idle, g.end-g.start)
		}
	}
	return during, idle
}

func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// percentile returns the nearest-rank p-quantile of ds (0 when empty).
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func medianSetup(times []setupTimes, f func(setupTimes) time.Duration) time.Duration {
	ds := make([]time.Duration, len(times))
	for i, t := range times {
		ds[i] = f(t)
	}
	return percentile(ds, .5)
}

func meanInt(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s int64
	for _, x := range xs {
		s += x
	}
	return float64(s) / float64(len(xs))
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func okText(ok bool) string {
	if ok {
		return "ok"
	}
	return "NOT OK"
}

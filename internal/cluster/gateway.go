package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"exactppr/internal/core"
	"exactppr/internal/graph"
	"exactppr/internal/sparse"
)

// Querier is the backend a Gateway serves from. *Coordinator implements
// it; anything answering exact PPV queries with per-query cancellation
// works (e.g. a single-store adapter in tests).
type Querier interface {
	QueryCtx(ctx context.Context, u int32) (*QueryStats, error)
	QuerySetCtx(ctx context.Context, p core.Preference) (*QueryStats, error)
}

// Gateway exposes a Querier over HTTP/JSON:
//
//	GET  /ppv/{node}?topk=K   one PPV query, top-K entries
//	POST /ppv                 batch: many sources fanned out concurrently,
//	                          or one weighted preference-set query
//	POST /edges               edge-delta batch applied to the live store
//	                          (501 unless every machine takes updates)
//	GET  /healthz             liveness + uptime
//	GET  /stats               serving counters (queries, errors, bytes, …)
//
// The zero value is not usable; construct with NewGateway. All handlers
// are safe for concurrent use — concurrency is the point: every request
// rides the multiplexed cluster transport without queueing behind others.
type Gateway struct {
	backend Querier

	// Timeout bounds each backend query (NewGateway sets 30s; zero or
	// negative also means 30s, so the bound cannot be configured away).
	Timeout time.Duration

	start    time.Time
	queries  atomic.Int64 // single-source queries answered OK
	batches  atomic.Int64 // batch requests answered
	updates  atomic.Int64 // edge-delta batches applied OK
	errors   atomic.Int64 // queries that failed
	inFlight atomic.Int64
	bytes    atomic.Int64 // cluster payload bytes behind HTTP answers
	wallNs   atomic.Int64 // summed backend wall time of OK queries
}

// Gateway limits; a batch also fans out on at most 2×GOMAXPROCS
// goroutines (handleBatch).
const (
	defaultTimeout = 30 * time.Second
	maxBatch       = 1024 // sources in one POST /ppv
	defaultTopK    = 10   // entries answered when a request names no topk
)

// NewGateway returns a Gateway over b.
func NewGateway(b Querier) *Gateway {
	return &Gateway{backend: b, Timeout: defaultTimeout, start: time.Now()}
}

// Handler returns the gateway's routing table.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /ppv/{node}", g.handleSingle)
	mux.HandleFunc("POST /ppv", g.handleBatch)
	mux.HandleFunc("POST /edges", g.handleEdges)
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	mux.HandleFunc("GET /stats", g.handleStats)
	return mux
}

// entryJSON is one (node, score) element of a top-k answer.
type entryJSON struct {
	ID    int32   `json:"id"`
	Score float64 `json:"score"`
}

// resultJSON is one answered PPV query.
type resultJSON struct {
	Node   *int32      `json:"node,omitempty"` // nil for preference-set answers
	TopK   []entryJSON `json:"topk,omitempty"`
	WallNs int64       `json:"wall_ns,omitempty"`
	Bytes  int64       `json:"bytes,omitempty"`
	Error  string      `json:"error,omitempty"`
}

// batchRequest is the POST /ppv body. Plain nodes fan out as independent
// single-source queries; set=true folds nodes (+optional weights) into
// one preference-set query via PPV linearity.
type batchRequest struct {
	Nodes   []int32   `json:"nodes"`
	Weights []float64 `json:"weights,omitempty"`
	TopK    int       `json:"topk,omitempty"`
	Set     bool      `json:"set,omitempty"`
}

func (g *Gateway) queryCtx(parent context.Context) (context.Context, context.CancelFunc) {
	timeout := g.Timeout
	if timeout <= 0 {
		timeout = defaultTimeout
	}
	return context.WithTimeout(parent, timeout)
}

func (g *Gateway) topK(r *http.Request) (int, error) {
	k := defaultTopK
	if s := r.URL.Query().Get("topk"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			return 0, fmt.Errorf("bad topk %q", s)
		}
		k = v
	}
	return k, nil
}

// runQuery answers one backend query under its own Timeout-derived
// deadline, so every query in a batch gets the full per-query budget.
// node is the source of a single-source query and nil for a set query.
// The raw error is returned alongside the JSON so handlers can pick a
// status code; batch callers embed the message in place instead.
func (g *Gateway) runQuery(parent context.Context, node *int32, k int, query func(context.Context) (*QueryStats, error)) (resultJSON, error) {
	ctx, cancel := g.queryCtx(parent)
	defer cancel()
	g.inFlight.Add(1)
	defer g.inFlight.Add(-1)
	stats, err := query(ctx)
	if err != nil {
		g.errors.Add(1)
		return resultJSON{Node: node, Error: err.Error()}, err
	}
	g.queries.Add(1)
	g.bytes.Add(stats.BytesReceived)
	g.wallNs.Add(int64(stats.Wall))
	return resultJSON{Node: node, TopK: topEntries(stats.Result, k), WallNs: int64(stats.Wall), Bytes: stats.BytesReceived}, nil
}

// runSingle is runQuery for one source node.
func (g *Gateway) runSingle(parent context.Context, u int32, k int) (resultJSON, error) {
	return g.runQuery(parent, &u, k, func(ctx context.Context) (*QueryStats, error) {
		return g.backend.QueryCtx(ctx, u)
	})
}

// statusClientClosedRequest is nginx's conventional status for "the
// client went away before we could answer" — there is no stdlib
// constant. It is what a cancelled request context maps to.
const statusClientClosedRequest = 499

// queryErrorStatus maps a failed backend query to an HTTP status: a
// deadline is the gateway timing out (504), a cancellation is the
// client hanging up (499), an out-of-range node is the client asking
// for something that does not exist (404), a malformed preference set
// or delta edge is a bad request (400), an update sent to a read-only
// machine is not implemented (501), anything else is a broken or
// unhappy cluster behind the gateway (502). Worker errors keep their
// class across TCP (see errorClasses), so every case is an errors.Is.
func queryErrorStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	case errors.Is(err, core.ErrNodeOutOfRange):
		return http.StatusNotFound
	case errors.Is(err, core.ErrBadPreference), errors.Is(err, graph.ErrEdgeOutOfRange), errors.Is(err, graph.ErrDeltaOverlap):
		return http.StatusBadRequest
	case errors.Is(err, ErrReadOnly):
		return http.StatusNotImplemented
	default:
		return http.StatusBadGateway
	}
}

// topEntries selects the k best entries straight off the packed result
// (bounded heap, no map materialization) — the per-request cost every
// ?topk=K query pays.
func topEntries(v sparse.Packed, k int) []entryJSON {
	entries := v.TopK(k)
	out := make([]entryJSON, len(entries))
	for i, e := range entries {
		out[i] = entryJSON{ID: e.ID, Score: e.Score}
	}
	return out
}

func (g *Gateway) handleSingle(w http.ResponseWriter, r *http.Request) {
	node, err := strconv.ParseInt(r.PathValue("node"), 10, 32)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad node %q", r.PathValue("node")))
		return
	}
	k, err := g.topK(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	res, err := g.runSingle(r.Context(), int32(node), k)
	if err != nil {
		writeJSON(w, queryErrorStatus(err), res)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (g *Gateway) handleBatch(w http.ResponseWriter, r *http.Request) {
	// Cap the body BEFORE decoding so an oversized batch is rejected on
	// size, not materialized in memory first. 48 bytes covers one node
	// plus a full-precision float64 weight in worst-case JSON; 4 KiB
	// covers the envelope.
	body := http.MaxBytesReader(w, r.Body, int64(maxBatch)*48+4096)
	var req batchRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("body exceeds %d bytes — split the batch", tooBig.Limit))
			return
		}
		httpError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return
	}
	if len(req.Nodes) == 0 {
		httpError(w, http.StatusBadRequest, "empty nodes")
		return
	}
	if len(req.Nodes) > maxBatch {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("batch of %d exceeds limit %d", len(req.Nodes), maxBatch))
		return
	}
	if req.Weights != nil && !req.Set {
		// Refuse rather than silently answer unweighted per-node queries.
		httpError(w, http.StatusBadRequest, "weights require \"set\":true")
		return
	}
	pref := core.Preference{Nodes: req.Nodes, Weights: req.Weights}
	if err := pref.CheckWeights(); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	k := req.TopK
	if k < 1 {
		k = defaultTopK
	}
	g.batches.Add(1)

	if req.Set {
		res, err := g.runQuery(r.Context(), nil, k, func(ctx context.Context) (*QueryStats, error) {
			return g.backend.QuerySetCtx(ctx, pref)
		})
		if err != nil {
			writeJSON(w, queryErrorStatus(err), res)
			return
		}
		writeJSON(w, http.StatusOK, res)
		return
	}

	// Fan the sources out concurrently; a bounded worker group keeps one
	// huge batch from monopolizing the cluster. Per-source failures are
	// reported in place — each failed result carries its error string —
	// so one bad node does not sink its batch-mates, and the top-level
	// failed/partial fields let clients notice without scanning every
	// result.
	results := make([]resultJSON, len(req.Nodes))
	var failed atomic.Int64
	sem := make(chan struct{}, 2*runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, u := range req.Nodes {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, u int32) {
			defer wg.Done()
			defer func() { <-sem }()
			var err error
			results[i], err = g.runSingle(r.Context(), u, k)
			if err != nil {
				failed.Add(1)
			}
		}(i, u)
	}
	wg.Wait()
	// A batch cut short because the REQUEST died (client hung up, or a
	// server-level deadline) is not a success: its zeroed/failed results
	// would be indistinguishable from empty PPVs under a 200. Map the
	// request-context error exactly like a single query's.
	status := http.StatusOK
	if ctxErr := r.Context().Err(); ctxErr != nil {
		status = queryErrorStatus(ctxErr)
	}
	writeJSON(w, status, batchResponse{
		Results: results,
		Failed:  int(failed.Load()),
		Partial: failed.Load() > 0,
	})
}

// batchResponse is the POST /ppv answer for fanned-out batches. Partial
// is true when at least one (but not necessarily every) result failed;
// failed results carry their error in place.
type batchResponse struct {
	Results []resultJSON `json:"results"`
	Failed  int          `json:"failed,omitempty"`
	Partial bool         `json:"partial,omitempty"`
}

// updateRequest is the POST /edges body: edge pairs to insert/delete as
// one atomic batch.
type updateRequest struct {
	Insert [][2]int32 `json:"insert,omitempty"`
	Delete [][2]int32 `json:"delete,omitempty"`
}

// maxUpdateBytes bounds the POST /edges body (~170k edge operations) —
// larger graph loads belong in the offline build pipeline, not a
// serving-path update batch.
const maxUpdateBytes = 4 << 20

func (g *Gateway) handleEdges(w http.ResponseWriter, r *http.Request) {
	backend, ok := g.backend.(Updater)
	if !ok {
		httpError(w, http.StatusNotImplemented, "backend does not support updates")
		return
	}
	body := http.MaxBytesReader(w, r.Body, maxUpdateBytes)
	var req updateRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("body exceeds %d bytes — split the batch", tooBig.Limit))
			return
		}
		httpError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return
	}
	d := graph.Delta{Insert: req.Insert, Delete: req.Delete}
	if d.Len() == 0 {
		httpError(w, http.StatusBadRequest, "empty delta")
		return
	}
	stats, err := backend.ApplyUpdates(r.Context(), d)
	if err != nil {
		status := queryErrorStatus(err)
		if status != http.StatusBadRequest {
			g.errors.Add(1)
		}
		httpError(w, status, err.Error())
		return
	}
	g.updates.Add(1)
	writeJSON(w, http.StatusOK, map[string]any{
		"inserted":   stats.Inserted,
		"deleted":    stats.Deleted,
		"recomputed": stats.Recomputed,
		"wall_ns":    stats.Wall.Nanoseconds(),
	})
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	machines := 0
	if c, ok := g.backend.(interface{ NumMachines() int }); ok {
		machines = c.NumMachines()
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"uptime_s": time.Since(g.start).Seconds(),
		"machines": machines,
	})
}

func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	ok := g.queries.Load()
	var avg int64
	if ok > 0 {
		avg = g.wallNs.Load() / ok
	}
	stats := map[string]any{
		"queries":        ok,
		"batches":        g.batches.Load(),
		"updates":        g.updates.Load(),
		"errors":         g.errors.Load(),
		"in_flight":      g.inFlight.Load(),
		"bytes_received": g.bytes.Load(),
		"avg_wall_ns":    avg,
		"uptime_s":       time.Since(g.start).Seconds(),
	}
	// Disk-resident backends surface their serving counters and the
	// heap the open store keeps, so mmap and footprint regressions are
	// observable in production, not just in benches.
	if p, ok := g.backend.(interface{ DiskStats() core.DiskStats }); ok {
		ds := p.DiskStats()
		stats["disk"] = map[string]any{"reads": ds.Reads, "mmap": ds.Mmap, "resident_bytes": ds.ResidentBytes}
	}
	writeJSON(w, http.StatusOK, stats)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

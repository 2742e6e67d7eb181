package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"exactppr/internal/core"
)

func testGateway(t *testing.T) (*core.Store, *httptest.Server) {
	t.Helper()
	s := testStore(t)
	c, err := NewLocalCluster(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewGateway(c).Handler())
	t.Cleanup(srv.Close)
	return s, srv
}

func getJSON(t *testing.T, url string, wantStatus int, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func postJSON(t *testing.T, url string, body any, wantStatus int, v any) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func TestGatewaySingleQuery(t *testing.T) {
	s, srv := testGateway(t)
	for _, u := range []int32{0, 42, 299} {
		var res resultJSON
		getJSON(t, fmt.Sprintf("%s/ppv/%d?topk=5", srv.URL, u), http.StatusOK, &res)
		if res.Node == nil || *res.Node != u {
			t.Fatalf("node = %v, want %d", res.Node, u)
		}
		want, err := s.Query(u)
		if err != nil {
			t.Fatal(err)
		}
		wantTop := want.TopK(5)
		if len(res.TopK) != len(wantTop) {
			t.Fatalf("u=%d: got %d entries, want %d", u, len(res.TopK), len(wantTop))
		}
		for i, e := range res.TopK {
			if e.ID != wantTop[i].ID || math.Abs(e.Score-wantTop[i].Score) > 1e-9 {
				t.Fatalf("u=%d rank %d: got (%d, %v), want (%d, %v)",
					u, i, e.ID, e.Score, wantTop[i].ID, wantTop[i].Score)
			}
		}
		if res.Bytes <= 0 {
			t.Fatalf("u=%d: no byte accounting in HTTP answer", u)
		}
	}
}

func TestGatewayBadRequests(t *testing.T) {
	_, srv := testGateway(t)
	var e map[string]string
	getJSON(t, srv.URL+"/ppv/notanode", http.StatusBadRequest, &e)
	getJSON(t, srv.URL+"/ppv/1?topk=zero", http.StatusBadRequest, &e)
	postJSON(t, srv.URL+"/ppv", map[string]any{"nodes": []int32{}}, http.StatusBadRequest, &e)
	// Weights without set:true would silently answer unweighted — refuse.
	postJSON(t, srv.URL+"/ppv", map[string]any{
		"nodes": []int32{1, 2}, "weights": []float64{0.9, 0.1},
	}, http.StatusBadRequest, &e)
	// Out-of-range node: the worker's validation error surfaces as 404
	// (the node does not exist), not a hang and not a 502.
	var res resultJSON
	getJSON(t, srv.URL+"/ppv/99999", http.StatusNotFound, &res)
	if res.Error == "" {
		t.Fatal("missing error text in 404 body")
	}
}

func TestGatewayBatch(t *testing.T) {
	s, srv := testGateway(t)
	nodes := []int32{1, 7, 150, 299}
	var out struct {
		Results []resultJSON `json:"results"`
	}
	postJSON(t, srv.URL+"/ppv", map[string]any{"nodes": nodes, "topk": 3}, http.StatusOK, &out)
	if len(out.Results) != len(nodes) {
		t.Fatalf("got %d results, want %d", len(out.Results), len(nodes))
	}
	for i, res := range out.Results {
		if res.Error != "" {
			t.Fatalf("node %d: %s", nodes[i], res.Error)
		}
		want, err := s.Query(nodes[i])
		if err != nil {
			t.Fatal(err)
		}
		wantTop := want.TopK(3)
		for j, e := range res.TopK {
			if e.ID != wantTop[j].ID || math.Abs(e.Score-wantTop[j].Score) > 1e-9 {
				t.Fatalf("node %d rank %d: got (%d, %v), want (%d, %v)",
					nodes[i], j, e.ID, e.Score, wantTop[j].ID, wantTop[j].Score)
			}
		}
	}

	// A bad source fails in place without sinking its batch-mates.
	postJSON(t, srv.URL+"/ppv", map[string]any{"nodes": []int32{5, -1, 9}}, http.StatusOK, &out)
	if out.Results[1].Error == "" {
		t.Fatal("bad node should report an error")
	}
	if out.Results[0].Error != "" || out.Results[2].Error != "" {
		t.Fatalf("good nodes failed: %+v", out.Results)
	}
}

// TestGatewayWeightsMismatch: weights shorter than nodes must be a 400,
// never a panic (it used to crash the process through encodePreference
// on the TCP transport).
func TestGatewayWeightsMismatch(t *testing.T) {
	_, srv := testGateway(t)
	var e map[string]string
	postJSON(t, srv.URL+"/ppv", map[string]any{
		"nodes": []int32{1, 2, 3}, "weights": []float64{0.5}, "set": true,
	}, http.StatusBadRequest, &e)
	if e["error"] == "" {
		t.Fatal("missing error text")
	}
}

// TestGatewayOverflowingWeights: weights whose sum overflows float64
// would normalize to zero and answer an all-zero vector with 200; the
// gateway must refuse them as a client error before any fan-out.
func TestGatewayOverflowingWeights(t *testing.T) {
	_, srv := testGateway(t)
	var e map[string]string
	postJSON(t, srv.URL+"/ppv", map[string]any{
		"nodes": []int32{1, 2}, "weights": []float64{1e308, 1e308}, "set": true,
	}, http.StatusBadRequest, &e)
	if e["error"] == "" {
		t.Fatal("missing error text")
	}
}

// TestTCPMachineWeightsMismatch: the TCP transport rejects the same
// malformed preference the in-process machine rejects.
func TestTCPMachineWeightsMismatch(t *testing.T) {
	s := testStore(t)
	shards, err := core.Split(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	addr, stop := startWorker(t, &LocalMachine{Backend: shards[0]})
	defer stop()
	m, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	bad := core.Preference{Nodes: []int32{1, 2, 3}, Weights: []float64{0.5}}
	if _, _, err := m.QuerySetShare(context.Background(), bad); err == nil {
		t.Fatal("mismatched weights must fail, not panic")
	}
	nan := core.Preference{Nodes: []int32{1, 2}, Weights: []float64{math.NaN(), 1}}
	if _, _, err := m.QuerySetShare(context.Background(), nan); err == nil {
		t.Fatal("a NaN weight must fail")
	}
}

func TestGatewayPreferenceSet(t *testing.T) {
	s, srv := testGateway(t)
	pref := core.Preference{Nodes: []int32{5, 50, 150}, Weights: []float64{1, 2, 1}}
	var res resultJSON
	postJSON(t, srv.URL+"/ppv", map[string]any{
		"nodes": pref.Nodes, "weights": pref.Weights, "set": true, "topk": 5,
	}, http.StatusOK, &res)
	want, err := s.QuerySet(pref)
	if err != nil {
		t.Fatal(err)
	}
	wantTop := want.TopK(5)
	for i, e := range res.TopK {
		if e.ID != wantTop[i].ID || math.Abs(e.Score-wantTop[i].Score) > 1e-9 {
			t.Fatalf("rank %d: got (%d, %v), want (%d, %v)", i, e.ID, e.Score, wantTop[i].ID, wantTop[i].Score)
		}
	}
}

// stuckQuerier blocks until the per-query deadline fires.
type stuckQuerier struct{}

func (stuckQuerier) QueryCtx(ctx context.Context, u int32) (*QueryStats, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

func (stuckQuerier) QuerySetCtx(ctx context.Context, p core.Preference) (*QueryStats, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestGatewayTimeoutIs504: a query that exceeds the gateway's per-query
// budget reports 504 Gateway Timeout, not 502.
func TestGatewayTimeoutIs504(t *testing.T) {
	g := NewGateway(stuckQuerier{})
	g.Timeout = 20 * time.Millisecond
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	var res resultJSON
	getJSON(t, srv.URL+"/ppv/1", http.StatusGatewayTimeout, &res)
	if res.Error == "" {
		t.Fatal("missing error text in 504 body")
	}
}

func TestGatewayHealthAndStats(t *testing.T) {
	_, srv := testGateway(t)
	var health map[string]any
	getJSON(t, srv.URL+"/healthz", http.StatusOK, &health)
	if health["status"] != "ok" {
		t.Fatalf("healthz: %v", health)
	}
	if health["machines"].(float64) != 3 {
		t.Fatalf("machines = %v, want 3", health["machines"])
	}

	// Serve a mix of traffic concurrently, then audit the counters.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(u int32) {
			defer wg.Done()
			resp, err := http.Get(fmt.Sprintf("%s/ppv/%d", srv.URL, u))
			if err == nil {
				resp.Body.Close()
			}
		}(int32(i))
	}
	wg.Wait()
	resp, err := http.Get(srv.URL + "/ppv/99999") // one failure
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var stats map[string]any
	getJSON(t, srv.URL+"/stats", http.StatusOK, &stats)
	if stats["queries"].(float64) < 8 {
		t.Fatalf("queries = %v, want ≥ 8", stats["queries"])
	}
	if stats["errors"].(float64) < 1 {
		t.Fatalf("errors = %v, want ≥ 1", stats["errors"])
	}
	if stats["bytes_received"].(float64) <= 0 {
		t.Fatalf("bytes_received = %v", stats["bytes_received"])
	}
}

// FuzzGatewayBatch sends arbitrary POST /ppv bodies to a gateway over an
// in-process cluster. Whatever the body, the gateway must not panic, must
// answer 200, 400, 404 or 413, and every 200 must decode as JSON that
// carries only finite scores.
func FuzzGatewayBatch(f *testing.F) {
	s, err := buildStore()
	if err != nil {
		f.Fatal(err)
	}
	c, err := NewLocalCluster(s, 3)
	if err != nil {
		f.Fatal(err)
	}
	h := NewGateway(c).Handler()
	for _, body := range []string{
		`{"nodes":[1,7,42],"topk":3}`,
		`{"nodes":[1,1],"set":true}`,
		`{"nodes":[1,7],"weights":[1,2],"set":true}`,
		`{"nodes":[1,7],"weights":[1e308,1e308],"set":true}`,
		`{"nodes":[1,7],"weights":[1,2]}`,
		`{"nodes":[1,999999]}`,
		`{"nodes":[1,999999],"set":true}`,
		`{"nodes":[-1],"topk":-5}`,
		`{"nodes":[]}`,
		`{"nodes":[3],"topk":2147483647}`,
		`{"nodes":"x"}`,
		`not json`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ppv", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge:
			return
		default:
			t.Fatalf("body %q: status %d: %s", body, rec.Code, rec.Body)
		}
		// One shape covers both answers: a preference-set result, or a
		// batch's results.
		var resp struct {
			resultJSON
			Results []resultJSON `json:"results"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("body %q: 200 answer does not decode: %v (%q)", body, err, rec.Body)
		}
		for _, r := range append(resp.Results, resp.resultJSON) {
			for _, e := range r.TopK {
				if math.IsNaN(e.Score) || math.IsInf(e.Score, 0) {
					t.Fatalf("body %q: node %d scores %v", body, e.ID, e.Score)
				}
			}
		}
	})
}

package main

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"exactppr/internal/cluster"
	"exactppr/internal/core"
	"exactppr/internal/gen"
	"exactppr/internal/hierarchy"
	"exactppr/internal/ppr"
	"exactppr/internal/sparse"
)

// storeFile saves a small store to a temporary file and returns its
// path and the store loaded back from it.
func storeFile(t *testing.T) (string, *core.Store) {
	t.Helper()
	g, err := gen.Community(gen.Config{
		Nodes: 200, AvgOutDegree: 4, Communities: 3,
		InterFrac: 0.05, MinOutDegree: 1, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.BuildHGPA(g, hierarchy.Options{Seed: 1}, ppr.Params{Alpha: 0.15, Eps: 1e-7}, 2)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "test.store")
	if err := core.SaveFile(path, s); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, loaded
}

// TestWorkerSharesMatchSplit: a read-only worker serves its slice of the
// mapped file, and every share it answers is byte-identical to the
// share of the same slice of the loaded store.
func TestWorkerSharesMatchSplit(t *testing.T) {
	path, s := storeFile(t)
	ctx := context.Background()
	for _, n := range []int{1, 2, 3} {
		shards, err := core.Split(s, n)
		if err != nil {
			t.Fatal(err)
		}
		for i, sh := range shards {
			srv, _, err := worker(path, i, n, false)
			if err != nil {
				t.Fatal(err)
			}
			if srv.Updater != nil {
				t.Fatalf("n=%d shard %d: read-only worker has an Updater", n, i)
			}
			want := &cluster.LocalMachine{Backend: sh}
			for u := int32(0); u < int32(s.H.G.NumNodes()); u++ {
				got, _, err := srv.Machine.QueryShare(ctx, u)
				if err != nil {
					t.Fatal(err)
				}
				exp, _, err := want.QueryShare(ctx, u)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, exp) {
					t.Fatalf("n=%d shard %d node %d: worker share differs from Split's", n, i, u)
				}
			}
		}
	}
}

// TestLocalClusterMatchesMemory: the read-only local gateway's backend
// answers exactly what NewLocalCluster over the loaded store answers.
func TestLocalClusterMatchesMemory(t *testing.T) {
	path, s := storeFile(t)
	ctx := context.Background()
	for _, n := range []int{1, 2, 3} {
		got, _, err := localCluster(path, n, false)
		if err != nil {
			t.Fatal(err)
		}
		if supportsUpdates(got) {
			t.Fatalf("n=%d: read-only gateway backend accepts updates", n)
		}
		want, err := cluster.NewLocalCluster(s, n)
		if err != nil {
			t.Fatal(err)
		}
		for u := int32(0); u < int32(s.H.G.NumNodes()); u++ {
			g, err := got.QueryCtx(ctx, u)
			if err != nil {
				t.Fatal(err)
			}
			w, err := want.QueryCtx(ctx, u)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sparse.EncodePacked(g.Result), sparse.EncodePacked(w.Result)) {
				t.Fatalf("n=%d node %d: local gateway answer differs from NewLocalCluster's", n, u)
			}
		}
	}
}

// TestUpdatesYieldUpdater: -updates workers and gateways accept
// edge-delta batches.
func TestUpdatesYieldUpdater(t *testing.T) {
	path, _ := storeFile(t)
	srv, _, err := worker(path, 1, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if srv.Updater == nil {
		t.Fatal("-updates worker has no Updater")
	}
	c, _, err := localCluster(path, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.(cluster.Updater); !ok || !supportsUpdates(c) {
		t.Fatal("-updates gateway backend does not accept updates")
	}
}

// supportsUpdates asks a gateway backend the gateway's own question
// before it applies POST /edges.
func supportsUpdates(b cluster.Querier) bool {
	p, ok := b.(interface{ SupportsUpdates() bool })
	return ok && p.SupportsUpdates()
}

// TestWorkerShardOutOfRange: a -shard outside [0, of) is an error, in
// both worker modes, never a panic.
func TestWorkerShardOutOfRange(t *testing.T) {
	path, _ := storeFile(t)
	const n = 3
	for _, shard := range []int{n, -1} {
		for _, updates := range []bool{false, true} {
			if _, _, err := worker(path, shard, n, updates); err == nil {
				t.Fatalf("shard %d of %d (updates=%v): no error", shard, n, updates)
			}
		}
	}
}

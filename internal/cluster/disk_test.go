package cluster

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"exactppr/internal/core"
)

func testDiskCluster(t *testing.T, n int) (*core.Store, *DiskCluster) {
	t.Helper()
	s := testStore(t)
	path := filepath.Join(t.TempDir(), "s.store")
	if err := core.SaveFile(path, s); err != nil {
		t.Fatal(err)
	}
	ds, err := core.OpenDiskStore(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	c, err := NewDiskLocalCluster(ds, n)
	if err != nil {
		t.Fatal(err)
	}
	return s, c
}

// TestDiskClusterMatchesCentralQuery: the one-round protocol over disk
// shards reconstructs the same PPV as the in-memory store (the disk
// shares are bit-identical to memory shares, so the coordinator merge
// is too).
func TestDiskClusterMatchesCentralQuery(t *testing.T) {
	s, c := testDiskCluster(t, 3)
	mem, err := NewLocalCluster(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []int32{0, 7, 100, 299} {
		want, err := mem.Query(u)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Query(u)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Result.Unpack(), want.Result.Unpack()) {
			t.Fatalf("u=%d: disk cluster differs from memory cluster", u)
		}
		if got.BytesReceived != want.BytesReceived {
			t.Fatalf("u=%d: byte accounting differs (%d vs %d)", u, got.BytesReceived, want.BytesReceived)
		}
	}
}

// TestDiskClusterConcurrent: the mmap serving path under concurrent
// fan-out traffic — the deployment shape the zero-copy work targets.
// Run with -race in CI.
func TestDiskClusterConcurrent(t *testing.T) {
	_, c := testDiskCluster(t, 3)
	var wg sync.WaitGroup
	errCh := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(u int32) {
			defer wg.Done()
			stats, err := c.Query(u % 300)
			if err != nil {
				errCh <- err
				return
			}
			if stats.Result.Len() == 0 {
				errCh <- fmt.Errorf("u=%d: empty PPV", u%300)
			}
		}(int32(i * 9))
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if st := c.DiskStats(); st.Reads == 0 {
		t.Fatalf("disk counters not moving: %+v", st)
	}
}

// TestGatewayDiskStats: a gateway over a disk cluster reports the
// store's serving counters and resident bytes in /stats.
func TestGatewayDiskStats(t *testing.T) {
	_, c := testDiskCluster(t, 2)
	srv := httptest.NewServer(NewGateway(c).Handler())
	t.Cleanup(srv.Close)

	var res struct {
		TopK []struct {
			ID    int32   `json:"id"`
			Score float64 `json:"score"`
		} `json:"topk"`
	}
	getJSON(t, srv.URL+"/ppv/5?topk=3", http.StatusOK, &res)
	if len(res.TopK) != 3 {
		t.Fatalf("topk: %v", res.TopK)
	}

	var stats struct {
		Queries int64 `json:"queries"`
		Disk    *struct {
			Reads         int64 `json:"reads"`
			Mmap          bool  `json:"mmap"`
			ResidentBytes int64 `json:"resident_bytes"`
		} `json:"disk"`
	}
	getJSON(t, srv.URL+"/stats", http.StatusOK, &stats)
	if stats.Queries != 1 {
		t.Fatalf("queries = %d", stats.Queries)
	}
	if stats.Disk == nil {
		t.Fatal("/stats has no disk section for a disk-backed gateway")
	}
	if stats.Disk.Reads == 0 || !stats.Disk.Mmap {
		t.Fatalf("disk counters empty: %+v", *stats.Disk)
	}
	if want := c.DiskStats().ResidentBytes; want <= 0 || stats.Disk.ResidentBytes != want {
		t.Fatalf("resident_bytes %d, store reports %d", stats.Disk.ResidentBytes, want)
	}
}

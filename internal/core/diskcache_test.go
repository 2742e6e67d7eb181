package core

import (
	"fmt"
	"sync"
	"testing"

	"exactppr/internal/sparse"
)

func cacheVal(x float64) cval {
	p, _ := sparse.PackedView([]int32{0}, []float64{x})
	return cval{vec: p}
}

func mustLoad(t *testing.T, c *vecCache, st *diskCounters, k cacheKey, x float64) {
	t.Helper()
	if _, err := c.getOrLoad(k, st, func() (cval, error) { return cacheVal(x), nil }); err != nil {
		t.Fatal(err)
	}
}

// TestClockCacheBounds: the cache never holds more entries than its
// capacity, whatever the insert pattern.
func TestClockCacheBounds(t *testing.T) {
	var st diskCounters
	c := newVecCache(1, 4)
	for i := int32(0); i < 50; i++ {
		mustLoad(t, c, &st, cacheKey{secHubPartial, i}, float64(i))
		if c.len() > 4 {
			t.Fatalf("cache holds %d entries, cap 4", c.len())
		}
	}
	if st.evictions.Load() == 0 {
		t.Fatal("no evictions recorded")
	}
}

// TestClockCacheSecondChance: a key that keeps getting referenced
// survives a scan of one-shot keys — the property random eviction lacks
// and the reason path hubs stay resident under leaf-vector churn.
func TestClockCacheSecondChance(t *testing.T) {
	var st diskCounters
	c := newVecCache(1, 4)
	hot := cacheKey{secHubPartial, 1000}
	mustLoad(t, c, &st, hot, 1)
	for i := int32(0); i < 40; i++ {
		mustLoad(t, c, &st, cacheKey{secLeafPPV, i}, float64(i)) // churn
		mustLoad(t, c, &st, hot, 1)                              // re-reference
	}
	before := st.reads.Load()
	mustLoad(t, c, &st, hot, 1)
	if st.reads.Load() != before {
		t.Fatal("hot key was evicted despite constant references")
	}
}

// TestCacheCoalescesConcurrentMisses: a storm of concurrent misses on
// one key runs the loader exactly once — everyone else waits for its
// result (the singleflight miss-storm fix).
func TestCacheCoalescesConcurrentMisses(t *testing.T) {
	var st diskCounters
	c := newVecCache(1, 16)
	k := cacheKey{secHubPartial, 7}
	gate := make(chan struct{})
	var loads sync.WaitGroup
	var wg sync.WaitGroup
	loads.Add(1)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.getOrLoad(k, &st, func() (cval, error) {
				loads.Done() // first (and only) loader reached the read
				<-gate       // hold the flight open so others must coalesce
				return cacheVal(42), nil
			})
			if err != nil {
				t.Error(err)
			}
			if v.vec.Get(0) != 42 {
				t.Errorf("coalesced value %v", v.vec.Get(0))
			}
		}()
	}
	loads.Wait() // exactly one goroutine is inside the loader...
	close(gate)  // ...release it; everyone resolves from its flight
	wg.Wait()
	if r := st.reads.Load(); r != 1 {
		t.Fatalf("%d reads for 16 concurrent misses on one key, want 1", r)
	}
	if st.hits.Load()+st.coalesced.Load() != 15 {
		t.Fatalf("hits %d + coalesced %d, want 15 total", st.hits.Load(), st.coalesced.Load())
	}
}

// TestCacheLoadErrorsNotCached: a failed load reports its error to the
// storm that coalesced on it, but the next caller retries.
func TestCacheLoadErrorsNotCached(t *testing.T) {
	var st diskCounters
	c := newVecCache(1, 8)
	k := cacheKey{secLeafPPV, 3}
	boom := fmt.Errorf("transient")
	if _, err := c.getOrLoad(k, &st, func() (cval, error) { return cval{}, boom }); err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, err := c.getOrLoad(k, &st, func() (cval, error) { return cacheVal(1), nil }); err != nil {
		t.Fatalf("retry after error failed: %v", err)
	}
	if st.reads.Load() != 2 {
		t.Fatalf("reads = %d, want 2 (error must not be cached)", st.reads.Load())
	}
}

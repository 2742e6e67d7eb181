package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"exactppr/internal/sparse"
)

// vecCache is the DiskStore's vector cache: an N-way sharded CLOCK
// (second-chance) cache with per-key read coalescing. It replaces the
// old single-mutex map with random eviction, fixing both of its serving
// pathologies at once:
//
//   - lock contention: concurrent queries hash to independent shards, so
//     a hot serving box no longer serializes every cache probe on one
//     mutex;
//   - miss storms: a burst of queries missing on the same hot hub used
//     to issue one disk read PER in-flight query. Misses now coalesce
//     through a per-key flight — exactly one loader runs, everyone else
//     waits for its result;
//   - eviction quality: CLOCK gives recently referenced vectors a second
//     chance instead of evicting uniformly at random, so a scan of cold
//     leaf vectors cannot flush the path hubs every query needs.
//
// Values are cval — either a packed vector (payload sections) or a hub
// plan row — so one cache serves all store sections.
type vecCache struct {
	shards []vecCacheShard
	mask   uint32
}

// cval is one cached object. Exactly one of the two shapes is populated,
// according to the section the key belongs to.
type cval struct {
	vec  sparse.Packed
	plan planRow
}

// flightCall is one in-progress load; latecomers for the same key block
// on done instead of issuing their own read.
type flightCall struct {
	done chan struct{}
	val  cval
	err  error
}

type clockSlot struct {
	key cacheKey
	val cval
	ref bool
}

type vecCacheShard struct {
	mu     sync.Mutex
	cap    int
	pos    map[cacheKey]int // key → ring index
	ring   []clockSlot
	hand   int
	flight map[cacheKey]*flightCall
}

// diskCounters are the DiskStore's serving observability counters,
// updated atomically by the cache and surfaced via DiskStore.Stats and
// the gateway's /stats endpoint.
type diskCounters struct {
	hits      atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64
	reads     atomic.Int64
	evictions atomic.Int64
}

// newVecCache builds a cache with the given total capacity spread over
// `shards` shards (shards must be a power of two; 0 picks a default from
// GOMAXPROCS). Per-shard capacity is at least 1, so the effective total
// is max(cap, shards).
func newVecCache(shards, capacity int) *vecCache {
	if shards <= 0 {
		shards = 1
		for shards < runtime.GOMAXPROCS(0) && shards < 32 {
			shards <<= 1
		}
	}
	c := &vecCache{shards: make([]vecCacheShard, shards), mask: uint32(shards - 1)}
	for i := range c.shards {
		c.shards[i] = vecCacheShard{
			cap:    max(1, capacity/shards),
			pos:    make(map[cacheKey]int),
			flight: make(map[cacheKey]*flightCall),
		}
	}
	return c
}

func (c *vecCache) shard(k cacheKey) *vecCacheShard {
	h := uint32(k.key)*2654435761 ^ uint32(k.section)<<27
	return &c.shards[h&c.mask]
}

// purge drops every cached value (used by Close before unmapping the
// file: cached views alias the mapping and must not survive it).
func (c *vecCache) purge() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.pos = make(map[cacheKey]int)
		sh.ring = sh.ring[:0]
		sh.hand = 0
		sh.mu.Unlock()
	}
}

// len reports the total cached entries (for tests and stats).
func (c *vecCache) len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.ring)
		sh.mu.Unlock()
	}
	return n
}

// getOrLoad returns the cached value for k, or runs load exactly once
// per concurrent burst of callers and caches its result. Errors are
// broadcast to the coalesced waiters but never cached — the next caller
// retries the read.
func (c *vecCache) getOrLoad(k cacheKey, st *diskCounters, load func() (cval, error)) (cval, error) {
	sh := c.shard(k)
	sh.mu.Lock()
	if i, ok := sh.pos[k]; ok {
		sh.ring[i].ref = true
		v := sh.ring[i].val
		sh.mu.Unlock()
		st.hits.Add(1)
		return v, nil
	}
	st.misses.Add(1)
	if fc, ok := sh.flight[k]; ok {
		sh.mu.Unlock()
		st.coalesced.Add(1)
		<-fc.done
		return fc.val, fc.err
	}
	fc := &flightCall{done: make(chan struct{})}
	sh.flight[k] = fc
	sh.mu.Unlock()

	// The flight must resolve even if load panics (a corrupt mapping
	// tripping a slice bound, say) or waiters would hang forever — and
	// it must resolve as a FAILURE: caching the zero value and handing
	// waiters (empty vector, nil error) would silently corrupt query
	// results.
	completed := false
	defer func() {
		if !completed {
			fc.err = fmt.Errorf("core: cache load for (%d,%d) panicked", k.section, k.key)
			sh.resolve(k, fc, st)
		}
	}()
	st.reads.Add(1)
	fc.val, fc.err = load()
	completed = true
	sh.resolve(k, fc, st)
	return fc.val, fc.err
}

// resolve ends a flight: it caches a successful value and wakes the
// waiters. getOrLoad calls it from its own frame, and insertLocked takes
// the value by pointer, so the code that holds the shard lock sits less
// deep than load's read path. A query on a fresh goroutine whose stack
// must grow therefore grows it inside load, before taking the lock:
// growing (copying) the stack while holding the lock stalled every query
// on the shard and multiplied the disk path's p99 latency.
func (sh *vecCacheShard) resolve(k cacheKey, fc *flightCall, st *diskCounters) {
	sh.mu.Lock()
	delete(sh.flight, k)
	if fc.err == nil {
		sh.insertLocked(k, &fc.val, st)
	}
	sh.mu.Unlock()
	close(fc.done)
}

// insertLocked places a value, evicting one second-chance victim when
// the shard is full. Caller holds sh.mu.
func (sh *vecCacheShard) insertLocked(k cacheKey, v *cval, st *diskCounters) {
	if _, ok := sh.pos[k]; ok {
		return // a racing loader of the same key already filled it
	}
	for len(sh.ring) >= sh.cap {
		sh.evictOneLocked(st)
	}
	sh.pos[k] = len(sh.ring)
	sh.ring = append(sh.ring, clockSlot{key: k, val: *v})
}

// evictOneLocked runs the CLOCK hand: referenced slots get their bit
// cleared and a second chance; the first unreferenced slot is evicted.
// Caller holds sh.mu and guarantees the ring is non-empty.
func (sh *vecCacheShard) evictOneLocked(st *diskCounters) {
	for {
		if sh.hand >= len(sh.ring) {
			sh.hand = 0
		}
		if sh.ring[sh.hand].ref {
			sh.ring[sh.hand].ref = false
			sh.hand++
			continue
		}
		victim := sh.hand
		delete(sh.pos, sh.ring[victim].key)
		last := len(sh.ring) - 1
		if victim != last {
			sh.ring[victim] = sh.ring[last]
			sh.pos[sh.ring[victim].key] = victim
		}
		sh.ring = sh.ring[:last]
		if st != nil {
			st.evictions.Add(1)
		}
		return
	}
}

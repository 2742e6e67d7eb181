package ppr

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Run is the one task pool of the offline build — each level of the
// partition tree (hierarchy.Build) and every vector — and of the update
// recompute: it calls task(sc, i) for every i in [0, n) on `workers`
// goroutines (0 = GOMAXPROCS; the caller is one of them), each of which
// owns one Scratch for all the tasks it runs. Workers claim indices in
// ascending order. A failing task stops new claims, and Run returns the
// error of the lowest failing index — every lower index was claimed
// first and runs to its end — so a failing build reports the same error
// at every worker count. A task must write only what index i owns; the
// caller merges after Run returns. The stats are the sum of every
// worker's Scratch.Stats.
func Run(n, workers int, task func(sc *Scratch, i int) error) (KernelStats, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var (
		next     atomic.Int64
		failed   atomic.Bool
		mu       sync.Mutex
		stats    KernelStats
		firstErr error
		errAt    = n
	)
	work := func() {
		var sc Scratch
		for !failed.Load() {
			i := int(next.Add(1) - 1)
			if i >= n {
				break
			}
			if err := task(&sc, i); err != nil {
				failed.Store(true)
				mu.Lock()
				if i < errAt {
					errAt, firstErr = i, err
				}
				mu.Unlock()
			}
		}
		mu.Lock()
		stats.Add(sc.Stats)
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for range min(workers, n) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return stats, firstErr
}

package ppr

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"exactppr/internal/graph"
	"exactppr/internal/sparse"
)

// settledGoroutines waits for the goroutine count to fall to want or below:
// a pool worker may still be exiting for a moment after Run returns.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		got := runtime.NumGoroutine()
		if got <= want || time.Now().After(deadline) {
			return got
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRunEveryIndexOnce(t *testing.T) {
	start := runtime.NumGoroutine()
	for _, n := range []int{0, 1, 7, 100} {
		for _, workers := range []int{0, 1, 3, 64} {
			runs := make([]atomic.Int32, n)
			if _, err := Run(n, workers, func(_ *Scratch, i int) error {
				runs[i].Add(1)
				return nil
			}); err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			for i := range runs {
				if c := runs[i].Load(); c != 1 {
					t.Fatalf("n=%d workers=%d: index %d ran %d times", n, workers, i, c)
				}
			}
		}
	}
	if got := settledGoroutines(start); got > start {
		t.Fatalf("%d goroutines after the runs, %d before", got, start)
	}
}

// TestRunLowestIndexError: index 40 fails at once while index 5 is
// still working, yet Run reports index 5's error at every worker count.
func TestRunLowestIndexError(t *testing.T) {
	start := runtime.NumGoroutine()
	for _, workers := range []int{0, 1, 3, 64} {
		_, err := Run(100, workers, func(_ *Scratch, i int) error {
			switch i {
			case 5:
				time.Sleep(20 * time.Millisecond)
				return fmt.Errorf("task %d", i)
			case 40:
				return fmt.Errorf("task %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "task 5" {
			t.Fatalf("workers=%d: err %v, want task 5", workers, err)
		}
	}
	if got := settledGoroutines(start); got > start {
		t.Fatalf("%d goroutines after the runs, %d before", got, start)
	}
}

// TestRunStatsSumTasks: Run's stats are the sum of the pushes every
// task's kernel made on its worker's scratch, and the scratch method
// returns the package-level PartialVector's bits.
func TestRunStatsSumTasks(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	b := graph.NewBuilder(200)
	for range 800 {
		b.AddEdge(int32(rng.Intn(200)), int32(rng.Intn(200)))
	}
	g := b.Build()
	isHub := randomHubs(rng, g.NumNodes())
	p := Params{Alpha: 0.15, Eps: 1e-6}
	n := g.NumNodes()
	for _, workers := range []int{0, 1, 3, 64} {
		pushes := make([]int64, n)
		partial := make([]sparse.Packed, n)
		blocked := make([]sparse.Vector, n)
		stats, err := Run(n, workers, func(sc *Scratch, i int) error {
			before := sc.Stats.Pushes
			var err error
			partial[i], blocked[i], err = sc.PartialVector(g, int32(i), isHub, p)
			pushes[i] = sc.Stats.Pushes - before
			return err
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var sum int64
		for i, x := range pushes {
			sum += x
			want, wantBlocked, err := PartialVector(g, int32(i), isHub, p)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, "partial", partial[i].Entries(), want.Entries())
			sameBits(t, "blocked", sparse.Pack(blocked[i]).Entries(), sparse.Pack(wantBlocked).Entries())
		}
		if stats.Vectors != int64(n) || stats.Pushes != sum || sum == 0 {
			t.Fatalf("workers=%d: stats %+v, want %d vectors and %d pushes", workers, stats, n, sum)
		}
	}
}

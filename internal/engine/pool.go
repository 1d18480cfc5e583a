package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is the one bounded worker pool behind every batch in the repo
// (Runner.Stream and gen.DiffStream). It calls fn(i) for every i in
// [0, n) on at most workers goroutines (0 or less = one per CPU) and
// sends each value as soon as it is ready, in completion order — a T
// that must be mapped back to its input carries i itself. The channel
// closes after the n-th value; the consumer must drain it.
func Pool[T any](workers, n int, fn func(i int) T) <-chan T {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// More workers than items is pure goroutine overhead. Results never
	// depend on the pool size.
	if workers > n {
		workers = n
	}
	// One slot per worker: a worker that finishes an item starts the next
	// without waiting for the consumer to take the first.
	out := make(chan T, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				out <- fn(i)
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}

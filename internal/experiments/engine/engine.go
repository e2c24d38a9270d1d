package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers returns the worker count used when a caller passes
// workers <= 0: one worker per available CPU.
func DefaultWorkers() int { return runtime.NumCPU() }

// Map runs trial(i) for every i in [0, n) across a worker pool of the
// given size and returns the results in index order. workers <= 0 means
// DefaultWorkers(); the pool never exceeds n. Trials are claimed from a
// shared counter, so uneven trial costs balance across workers, and the
// result slice is written at each trial's own index, so completion order
// never affects output.
//
// trial must be safe to call concurrently with itself: it may read shared
// immutable state but must not write anything another trial reads, and
// any PRNG it uses must be created inside the call and seeded from the
// trial's index.
func Map[T any](workers, n int, trial func(i int) T) []T {
	return MapWith(workers, n, func() struct{} { return struct{}{} },
		func(_ struct{}, i int) T { return trial(i) })
}

// MapWith is Map with per-worker scratch state: each worker calls state()
// once and passes the result to every trial it claims. It exists for the
// allocation-free simulation hot path — a phy.Workspace (or any other
// reusable buffer set) is built once per worker instead of once per trial
// or once per call inside the trial.
//
// The scratch must not influence results: trials are required to produce
// identical output for a fresh state and a state warmed by any other
// trial (the workspace packages pin this property), which is what keeps
// the engine's byte-identical-at-any-worker-count contract intact.
func MapWith[S, T any](workers, n int, state func() S, trial func(ws S, i int) T) []T {
	out := make([]T, n)
	if n == 0 {
		return out
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		ws := state()
		for i := 0; i < n; i++ {
			out[i] = trial(ws, i)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			ws := state()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = trial(ws, i)
			}
		}()
	}
	wg.Wait()
	return out
}

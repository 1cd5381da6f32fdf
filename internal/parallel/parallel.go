// Package parallel provides the deterministic worker-pool primitives used by
// every hot path of the library (GP training restarts and acquisition
// maximization).
//
// # Determinism contract
//
// Every helper here guarantees that results are bit-identical regardless of
// the worker count (including the serial Workers=1 path) as long as each task
// i writes only to its own output slot and reads only immutable shared state.
// Work distribution uses an atomic counter, so *which* goroutine runs a task
// is scheduling-dependent — but per-worker scratch must carry no cross-task
// state that can influence a task's output, and reductions are performed by
// the caller in task-index order.
//
// Randomness must be drawn serially before the fan-out (as the GP restarts
// and MSP start points are), never from a *rand.Rand shared by tasks: that
// keeps random draws independent of both GOMAXPROCS and scheduling order.
package parallel

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// EnvWorkers is the environment variable that overrides DefaultWorkers —
// CI sets it to force Workers>1 on every code path regardless of the
// runner's core count.
const EnvWorkers = "MFBO_WORKERS"

// DefaultWorkers returns the default worker count: the EnvWorkers override
// when set to a positive integer, otherwise runtime.NumCPU().
func DefaultWorkers() int {
	if s := os.Getenv(EnvWorkers); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return runtime.NumCPU()
}

// Workers normalizes a requested worker count: n > 0 is honored as given,
// anything else selects DefaultWorkers(). Configs throughout the library use
// 0 for "default" and 1 for "serial".
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return DefaultWorkers()
}

// ForEach runs fn(i) for every i in [0, n) on up to workers goroutines.
// With workers <= 1 (or n <= 1) the tasks run inline on the caller's
// goroutine in index order — the reference serial schedule that parallel
// runs must reproduce bit-identically. A panic in any task is re-raised on
// the caller's goroutine after all workers have drained.
func ForEach(workers, n int, fn func(i int)) {
	ForEachWorker(workers, n, func(_, i int) { fn(i) })
}

// ForEachWorker is ForEach with the worker slot exposed: fn(w, i) runs task i
// on worker w ∈ [0, workers). The slot lets callers hand each worker its own
// pre-allocated scratch state (cloned kernels, factorization buffers) without
// locking. Slot 0 is the caller's goroutine on the serial path.
func ForEachWorker(workers, n int, fn func(w, i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var (
		next int64 = 0
		wg   sync.WaitGroup
		pmu  sync.Mutex
		pval any
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					pmu.Lock()
					if pval == nil {
						pval = r
					}
					pmu.Unlock()
					// Drain remaining tasks so sibling workers exit promptly.
					atomic.StoreInt64(&next, int64(n))
				}
			}()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
	if pval != nil {
		panic(pval)
	}
}

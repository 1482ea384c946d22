// Package par provides the bounded worker pool that fans out the
// repository's independent work units: profiled conditions, collocation
// pairs, repeated trainings and forest trees. Callers derive any
// per-task randomness (stats.RNG.Split / SplitN) *before* dispatch and
// write results into index-addressed slots, so outputs are bit-identical
// regardless of scheduling or worker count.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"stac/internal/obs"
)

// Pool metrics, resolved once at init so the per-task cost is a couple of
// clock reads and atomic updates. Queue depth is tracked as a gauge pair:
// par/queued counts tasks accepted but not yet started (cancelled tasks
// are drained back out on return), par/inflight counts tasks currently
// executing.
var (
	parBatches      = obs.C("par/batches")
	parTasks        = obs.C("par/tasks")
	parQueued       = obs.G("par/queued")
	parInflight     = obs.G("par/inflight")
	parTaskSeconds  = obs.H("par/task_seconds")
	parBatchSeconds = obs.H("par/batch_seconds")
)

// Workers resolves a requested worker count: values <= 0 mean
// GOMAXPROCS.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ForEach invokes fn(0) … fn(n-1), each exactly once, on at most
// workers goroutines (workers <= 0 uses GOMAXPROCS) and waits for all
// started tasks to finish. The first error cancels dispatch: tasks no
// worker has taken yet never run, tasks already running complete.
// ForEach returns the error of the lowest-index failed task, so the
// reported failure is deterministic regardless of scheduling.
//
// fn must be safe for concurrent invocation when workers > 1. With
// workers == 1 tasks run sequentially on the calling goroutine in index
// order, stopping at the first error — the fully deterministic
// reference behaviour the parallel path must reproduce.
func ForEach(workers, n int, fn func(i int) error) error {
	return ForEachWorker(workers, n, func(_, i int) error { return fn(i) })
}

// ForEachWorker is ForEach that also passes fn the index w of the worker
// running the task, in [0, min(Workers(workers), n)). No two tasks run on
// one worker at a time, so fn may use per-worker state, such as a
// simulator indexed by w, without locking.
func ForEachWorker(workers, n int, fn func(w, i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	parBatches.Inc()
	parQueued.Add(float64(n))
	batchStart := time.Now()
	var started atomic.Int64
	run := func(w, i int) error {
		started.Add(1)
		parQueued.Add(-1)
		parInflight.Add(1)
		t0 := time.Now()
		err := fn(w, i)
		parTaskSeconds.Observe(time.Since(t0).Seconds())
		parInflight.Add(-1)
		parTasks.Inc()
		return err
	}
	// Drain tasks that error-cancellation kept from ever starting, so the
	// queued gauge returns to its pre-batch level.
	defer func() {
		parQueued.Add(float64(started.Load()) - float64(n))
		parBatchSeconds.Observe(time.Since(batchStart).Seconds())
	}()
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := run(0, i); err != nil {
				return err
			}
		}
		return nil
	}

	// Workers take the next index from a shared counter. Handing each
	// index over a channel instead costs a goroutine wake-up per task,
	// which held two workers running ~100 µs tasks to about 1.5× of one.
	errs := make([]error, n)
	var failed atomic.Bool
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := run(w, i); err != nil {
					errs[i] = err
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

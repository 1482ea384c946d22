package par

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		n := 53
		counts := make([]int32, n)
		if err := ForEach(workers, n, func(i int) error {
			atomic.AddInt32(&counts[i], 1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachResultsMatchSequential(t *testing.T) {
	n := 40
	want := make([]int, n)
	_ = ForEach(1, n, func(i int) error { want[i] = i * i; return nil })
	got := make([]int, n)
	if err := ForEach(8, n, func(i int) error { got[i] = i * i; return nil }); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slot %d: parallel %d, sequential %d", i, got[i], want[i])
		}
	}
}

func TestForEachReturnsLowestIndexError(t *testing.T) {
	n := 30
	err := ForEach(4, n, func(i int) error {
		if i%7 == 3 { // fails at 3, 10, 17, 24
			return fmt.Errorf("task %d failed", i)
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected an error")
	}
	if err.Error() != "task 3 failed" {
		t.Fatalf("got %q, want the lowest-index failure", err)
	}
}

func TestForEachErrorStopsDispatch(t *testing.T) {
	n := 1000
	var ran int32
	boom := errors.New("boom")
	err := ForEach(2, n, func(i int) error {
		atomic.AddInt32(&ran, 1)
		if i == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// After index 0 fails, only tasks already dispatched may still run;
	// the bulk of the 1000 tasks must never start.
	if r := atomic.LoadInt32(&ran); r >= int32(n) {
		t.Fatalf("all %d tasks ran despite early error", r)
	}
}

func TestForEachSequentialStopsImmediately(t *testing.T) {
	var ran int32
	err := ForEach(1, 100, func(i int) error {
		atomic.AddInt32(&ran, 1)
		return errors.New("first")
	})
	if err == nil || ran != 1 {
		t.Fatalf("ran=%d err=%v; want exactly one task", ran, err)
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak int32
	if err := ForEach(workers, 200, func(i int) error {
		c := atomic.AddInt32(&cur, 1)
		for {
			p := atomic.LoadInt32(&peak)
			if c <= p || atomic.CompareAndSwapInt32(&peak, p, c) {
				break
			}
		}
		atomic.AddInt32(&cur, -1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if peak > workers {
		t.Fatalf("observed %d concurrent tasks, limit %d", peak, workers)
	}
}

// TestForEachWorkerOwnsIndex pins the per-worker contract: the worker
// index is in range, and no two tasks hold one index at the same time.
func TestForEachWorkerOwnsIndex(t *testing.T) {
	for _, tc := range []struct{ workers, n, indices int }{{1, 20, 1}, {3, 200, 3}, {8, 5, 5}} {
		busy := make([]atomic.Bool, tc.indices)
		if err := ForEachWorker(tc.workers, tc.n, func(w, i int) error {
			if w < 0 || w >= tc.indices {
				return fmt.Errorf("task %d got worker %d, want [0, %d)", i, w, tc.indices)
			}
			if !busy[w].CompareAndSwap(false, true) {
				return fmt.Errorf("task %d shares worker %d with a running task", i, w)
			}
			busy[w].Store(false)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d n=%d: %v", tc.workers, tc.n, err)
		}
	}
}

func TestForEachZeroTasks(t *testing.T) {
	if err := ForEach(4, 0, func(int) error { return errors.New("never") }); err != nil {
		t.Fatal(err)
	}
}

func TestWorkersDefaults(t *testing.T) {
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Fatal("Workers must resolve non-positive requests to >= 1")
	}
	if Workers(5) != 5 {
		t.Fatal("explicit worker counts must pass through")
	}
}

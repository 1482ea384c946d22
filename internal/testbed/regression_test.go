package testbed

import (
	"math"
	"slices"
	"testing"

	"stac/internal/counters"
	"stac/internal/obs"
	"stac/internal/workload"
)

// quantumOf reproduces Run's quantum: a 64th of the fastest service's
// calibrated service time.
func quantumOf(res *RunResult) float64 {
	minExp := math.Inf(1)
	for _, s := range res.Services {
		minExp = math.Min(minExp, s.ExpServiceTime)
	}
	return minExp / 64
}

// windowsClosed replays Run's window schedule for a run that ended at
// simTime: time advances one quantum at a time, a window closes whenever
// it reaches the next sample time, and the final flush closes one more
// only if time passed since the last.
func windowsClosed(simTime, quantum, period float64) int {
	now, next, last, n := 0.0, period, 0.0, 0
	for now < simTime {
		now += quantum
		if now >= next {
			n, next, last = n+1, next+period, now
		}
	}
	if now > last {
		n++
	}
	return n
}

// runDepths runs m and returns its result with the queue depths its
// windows observed: the run's share of testbed/queue_depth, isolated by
// resetting the default registry first.
func runDepths(t *testing.T, m *Machine) (*RunResult, *obs.Histogram) {
	t.Helper()
	obs.Default.Reset()
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, obs.H("testbed/queue_depth")
}

// TestWindowSpansRealDivisor pins the window-accounting fix: windows
// close on quantum boundaries, so with a sampling period far below the
// quantum every quantum closes a window whose span is the quantum, not
// the nominal period. MemBandwidth must be normalised by the real span,
// so every query's attributed bandwidth is its attributed memory traffic
// over one quantum.
func TestWindowSpansRealDivisor(t *testing.T) {
	cond := Pair(workload.Redis(), workload.BFS(), 0.6, 0.6, 1, 1, 17)
	cond.QueriesPerService = 30
	cond.WarmupQueries = 5
	// Redis' calibrated service time is ~5e-5 s, so the quantum
	// (minExp/64) is ~8e-7 s — far above this sampling period.
	cond.SamplePeriod = 1e-9

	res, err := Run(cond)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.RequireComplete(); err != nil {
		t.Fatal(err)
	}
	quantum := quantumOf(res)
	if quantum <= cond.SamplePeriod {
		t.Fatalf("quantum %v does not exceed the sampling period %v", quantum, cond.SamplePeriod)
	}
	checked := 0
	for _, s := range res.Services {
		for i, q := range s.Queries {
			bytes := (q.Counters[counters.MemReads] + q.Counters[counters.MemWrites]) * LineSize
			if bytes == 0 {
				continue
			}
			span := bytes / q.Counters[counters.MemBandwidth]
			if math.Abs(span-quantum) > 1e-9*quantum {
				t.Fatalf("%s query %d: MemBandwidth implies a %v s window, want the %v s quantum",
					s.Name, i, span, quantum)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no query had memory traffic to check")
	}
}

// TestFinalFlushNoDuplicateWindow pins the final-flush fix: when the
// run ends exactly on a sample boundary the flush must not close a
// zero-span window, and in every case all measured queries must still
// receive their counter attribution. Every closed window records each
// service's queue depth once, so the depth count gives the number of
// windows. With a 1 ns sampling period every quantum closes a window
// and the run always ends on a boundary; the default period ends it
// inside a window.
func TestFinalFlushNoDuplicateWindow(t *testing.T) {
	for _, period := range []float64{1e-9, 0} {
		cond := Pair(workload.Redis(), workload.BFS(), 0.7, 0.7, 1, 1, 23)
		cond.QueriesPerService = 40
		cond.WarmupQueries = 5
		if period > 0 {
			cond.SamplePeriod = period
		}
		m, err := NewMachine(cond)
		if err != nil {
			t.Fatal(err)
		}
		res, depths := runDepths(t, m)
		windows := windowsClosed(res.SimTime, quantumOf(res), res.Condition.SamplePeriod)
		if got, want := depths.Count(), uint64(windows*len(res.Services)); got != want {
			t.Fatalf("period %v: %d queue depths recorded, want %d (%d windows × %d services)",
				res.Condition.SamplePeriod, got, want, windows, len(res.Services))
		}
		for _, s := range res.Services {
			if len(s.Queries) != cond.QueriesPerService {
				t.Fatalf("%s: %d measured queries, want %d", s.Name, len(s.Queries), cond.QueriesPerService)
			}
			for i, q := range s.Queries {
				var sum float64
				for _, c := range q.Counters {
					sum += c
				}
				if sum == 0 {
					t.Fatalf("period %v %s query %d: counter attribution missing",
						res.Condition.SamplePeriod, s.Name, i)
				}
			}
		}
	}
}

// TestQueueRingNoRetention pins the dispatch fix: popping the proxy
// queue must not retain consumed queries, so each ring's capacity stays
// bounded by its own service's deepest backlog, never the total number
// of queries that flowed through. At this load each ring carries over
// ten times its peak backlog; an overloaded run would not tell the two
// apart, as its backlog grows with the flow.
func TestQueueRingNoRetention(t *testing.T) {
	cond := Pair(workload.Redis(), workload.BFS(), 0.8, 0.8, NeverBoost, NeverBoost, 29)
	cond.QueriesPerService = 300
	m, err := NewMachine(cond)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range m.svcs {
		// The service's backlog: the queries still queued when the run
		// ended, or the most measured queries waiting at any one time.
		// Warmup queries and those served after the measured budget are
		// not counted, so this can fall short of the true peak.
		peak := max(s.queue.len(), peakWaiting(res.Services[i].Queries))
		// Ring growth doubles, so capacity ≤ max(8, 2×peak backlog); allow
		// 4× headroom for the queries the peak misses.
		bound := 4 * (peak + 8)
		if s.queue.capacity() > bound {
			t.Errorf("%s: ring capacity %d exceeds %d (peak backlog %d) — dead prefix retained?",
				s.name, s.queue.capacity(), bound, peak)
		}
	}
}

// peakWaiting returns the most queries that had arrived but not yet
// started at any one time.
func peakWaiting(qs []QueryResult) int {
	arrivals := make([]float64, len(qs))
	starts := make([]float64, len(qs))
	for i, q := range qs {
		arrivals[i], starts[i] = q.Arrival, q.Start
	}
	slices.Sort(arrivals)
	slices.Sort(starts)
	peak, started := 0, 0
	for i, a := range arrivals {
		for started < len(starts) && starts[started] <= a {
			started++
		}
		peak = max(peak, i+1-started)
	}
	return peak
}

// TestQueryRingFIFO exercises the ring in isolation through growth,
// wraparound and reset.
func TestQueryRingFIFO(t *testing.T) {
	var r queryRing
	next := 0
	popped := 0
	for round := 0; round < 5; round++ {
		for i := 0; i < 7+round*5; i++ {
			r.push(workload.Query{ID: next})
			next++
		}
		for r.len() > 2 {
			q := r.pop()
			if q.ID != popped {
				t.Fatalf("round %d: popped ID %d, want %d", round, q.ID, popped)
			}
			popped++
		}
	}
	for r.len() > 0 {
		q := r.pop()
		if q.ID != popped {
			t.Fatalf("drain: popped ID %d, want %d", q.ID, popped)
		}
		popped++
	}
	if popped != next {
		t.Fatalf("popped %d of %d pushed", popped, next)
	}
	r.push(workload.Query{ID: 1})
	r.reset()
	if r.len() != 0 {
		t.Fatal("reset did not empty the ring")
	}
}

// TestTruncatedRunSurfaces pins the maxSim-guard fix: a run that hits
// the simulated-time budget must say so instead of returning partial
// measurements indistinguishable from complete ones.
func TestTruncatedRunSurfaces(t *testing.T) {
	old := maxSimFactor
	maxSimFactor = 0.01 // guard trips almost immediately
	defer func() { maxSimFactor = old }()

	cond := Pair(workload.Redis(), workload.BFS(), 0.8, 0.8, 1, 1, 31)
	cond.QueriesPerService = 50
	res, err := Run(cond)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatal("run with a 0.01× time guard must report Truncated")
	}
	if err := res.RequireComplete(); err == nil {
		t.Fatal("RequireComplete must fail for a truncated run")
	}

	maxSimFactor = old
	full, err := Run(cond)
	if err != nil {
		t.Fatal(err)
	}
	if full.Truncated {
		t.Fatal("normal run must not report Truncated")
	}
	if err := full.RequireComplete(); err != nil {
		t.Fatal(err)
	}
}

package testbed

import (
	"math"
	"testing"

	"stac/internal/workload"
)

func TestSmokePairRun(t *testing.T) {
	cond := Pair(workload.Redis(), workload.Social(), 0.8, 0.8, 1.5, 1.5, 42)
	cond.QueriesPerService = 100
	res, err := Run(cond)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Services) != 2 {
		t.Fatalf("want 2 services, got %d", len(res.Services))
	}
	for _, s := range res.Services {
		if len(s.Queries) != 100 {
			t.Fatalf("service %s measured %d queries, want 100", s.Name, len(s.Queries))
		}
		for i, q := range s.Queries {
			if q.Start < q.Arrival-1e-12 {
				t.Fatalf("%s query %d started before arrival", s.Name, i)
			}
			if q.Completion <= q.Start {
				t.Fatalf("%s query %d completed before start", s.Name, i)
			}
		}
		if s.MeanServiceTime() <= 0 {
			t.Fatalf("%s non-positive service time", s.Name)
		}
		t.Logf("%s: expSvc=%.3gs meanSvc=%.3gs meanResp=%.3gs p95=%.3gs boosted=%.0f%% EA=%.2f",
			s.Name, s.ExpServiceTime, s.MeanServiceTime(), s.MeanResponse(),
			s.P95Response(), 100*s.BoostedFraction(), s.EffectiveAllocation())
	}
}

// TestBoostSpeedsUpCacheSensitiveWorkload checks the core physics: a
// cache-sensitive workload (BFS) collocated with a light neighbour should
// see lower mean response time with an always-boost policy than with a
// never-boost policy.
func TestBoostSpeedsUpCacheSensitiveWorkload(t *testing.T) {
	run := func(timeout float64) float64 {
		cond := Pair(workload.BFS(), workload.KNN(), 0.7, 0.3, timeout, NeverBoost, 7)
		cond.QueriesPerService = 150
		res, err := Run(cond)
		if err != nil {
			t.Fatal(err)
		}
		return res.Services[0].MeanResponse()
	}
	always := run(0)
	never := run(NeverBoost)
	t.Logf("bfs mean response: always-boost=%.4gs never=%.4gs speedup=%.2fx", always, never, never/always)
	if always >= never {
		t.Fatalf("boost did not speed up BFS: always=%v never=%v", always, never)
	}
}

func TestTimeoutMonotonicityInBoostFraction(t *testing.T) {
	frac := func(timeout float64) float64 {
		cond := Pair(workload.Redis(), workload.BFS(), 0.85, 0.85, timeout, NeverBoost, 11)
		cond.QueriesPerService = 120
		res, err := Run(cond)
		if err != nil {
			t.Fatal(err)
		}
		return res.Services[0].BoostedFraction()
	}
	lo := frac(0.5)
	hi := frac(4.0)
	t.Logf("boosted fraction: timeout=0.5 -> %.2f, timeout=4.0 -> %.2f", lo, hi)
	if lo <= hi {
		t.Fatalf("shorter timeout should boost more often: %.2f <= %.2f", lo, hi)
	}
}

func TestNeverBoostNeverBoosts(t *testing.T) {
	cond := Pair(workload.Jacobi(), workload.Redis(), 0.6, 0.6, NeverBoost, NeverBoost, 3)
	cond.QueriesPerService = 60
	res, err := Run(cond)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Services {
		if s.BoostedFraction() != 0 {
			t.Fatalf("%s boosted %.2f of queries under NeverBoost", s.Name, s.BoostedFraction())
		}
	}
}

func TestCountersAttributed(t *testing.T) {
	cond := Pair(workload.Spkmeans(), workload.Spstream(), 0.7, 0.7, 1.0, 1.0, 5)
	cond.QueriesPerService = 60
	res, err := Run(cond)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Services {
		withCounters := 0
		for _, q := range s.Queries {
			total := 0.0
			for _, v := range q.Counters {
				total += math.Abs(v)
			}
			if total > 0 {
				withCounters++
			}
		}
		if frac := float64(withCounters) / float64(len(s.Queries)); frac < 0.9 {
			t.Fatalf("%s: only %.0f%% of queries have attributed counters", s.Name, 100*frac)
		}
		if s.OccupancyLines <= 0 {
			t.Fatalf("%s: no LLC occupancy at the end of the run — the fleet's warmth signal is dead", s.Name)
		}
	}
}

func TestRunDeterminism(t *testing.T) {
	cond := Pair(workload.Redis(), workload.BFS(), 0.8, 0.8, 1.0, 2.0, 99)
	cond.QueriesPerService = 50
	a, err := Run(cond)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cond)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Services {
		qa, qb := a.Services[i].Queries, b.Services[i].Queries
		if len(qa) != len(qb) {
			t.Fatalf("service %d query counts differ", i)
		}
		for j := range qa {
			if qa[j].Completion != qb[j].Completion {
				t.Fatalf("service %d query %d completion differs: %v vs %v",
					i, j, qa[j].Completion, qb[j].Completion)
			}
		}
	}
}

func TestHigherLoadHigherResponse(t *testing.T) {
	resp := func(load float64) float64 {
		cond := Pair(workload.Redis(), workload.KNN(), load, 0.5, NeverBoost, NeverBoost, 13)
		cond.QueriesPerService = 150
		res, err := Run(cond)
		if err != nil {
			t.Fatal(err)
		}
		return res.Services[0].MeanResponse()
	}
	lo, hi := resp(0.3), resp(0.92)
	t.Logf("redis mean response: load 0.3 -> %.4g, load 0.92 -> %.4g", lo, hi)
	if hi <= lo {
		t.Fatalf("higher load should increase response time: %v <= %v", hi, lo)
	}
}

package surrogate

import (
	"testing"

	"stac/internal/testbed"
	"stac/internal/workload"
)

func benchSearcher(b *testing.B) *Searcher {
	b.Helper()
	s, err := New(Config{
		KernelA: workload.Redis(), KernelB: workload.Social(),
		LoadA: 0.9, LoadB: 0.9, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkSurrogateEvaluate is the fast path's per-plan cost: analytical
// model + memoised queueing sims. Paired with BenchmarkTestbedReplayPlan
// it yields the speedup ratio recorded in BENCH_mrc.json.
func BenchmarkSurrogateEvaluate(b *testing.B) {
	s := benchSearcher(b)
	plans := s.EnumeratePlans()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Evaluate(plans[i%len(plans)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTestbedReplayPlan is the cost the surrogate replaces: one full
// packed-simulator run of a plan at the testbed's default query count.
func BenchmarkTestbedReplayPlan(b *testing.B) {
	s := benchSearcher(b)
	plans := s.EnumeratePlans()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := plans[i%len(plans)]
		if _, err := testbed.Run(s.Condition(p, 0)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearcherSetup is the one-time cost amortised over a sweep:
// curve construction plus per-way anchor calibrations.
func BenchmarkSearcherSetup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSearcher(b)
	}
}

// BenchmarkSurrogateSearch is one full sweep: Search over every plan of
// EnumeratePlans (4294 on the default platform) on a fresh Searcher, so
// the simulation memo starts empty as it does for a real search. The
// Searcher's construction is excluded; BenchmarkSearcherSetup times it.
func BenchmarkSurrogateSearch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := benchSearcher(b)
		plans := s.EnumeratePlans()
		b.StartTimer()
		if _, err := s.Search(plans); err != nil {
			b.Fatal(err)
		}
	}
}

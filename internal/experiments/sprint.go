package experiments

import (
	"fmt"

	"stac/internal/stats"
	"stac/internal/testbed"
	"stac/internal/workload"
)

func init() {
	register("sprint", Sprint)
}

// Sprint compares the paper's boost mechanism (temporary cache ways)
// against frequency sprinting (the DVFS/turbo bursts of the
// computational-sprinting literature the paper extends) and their
// combination, under identical timeout policies. The expectation follows
// Amdahl: cache boosts pay off for memory-bound, reuse-capable workloads
// (redis, bfs); frequency boosts pay off for compute-bound ones (knn,
// kmeans); the mechanisms compose.
func Sprint(opts Options) (*Report, error) {
	opts = opts.defaults()
	const queries, reps = 160, 3

	pairs := []pairSpec{
		{"redis", "bfs"},  // memory-bound pair
		{"knn", "kmeans"}, // compute-bound pair
	}
	kinds := []testbed.BoostKind{testbed.BoostCache, testbed.BoostFrequency, testbed.BoostBoth}

	rep := &Report{
		ID:      "sprint",
		Title:   "Boost mechanism comparison: p95 speedup vs never-boost (timeout 1x, 90% load)",
		Columns: []string{"collocation", "mechanism", "speedup A", "speedup B"},
	}

	measure := func(ka, kb workload.Kernel, kind testbed.BoostKind, timeout float64) ([2]float64, error) {
		conds := make([]testbed.Condition, reps)
		for r := range conds {
			cond := testbed.Pair(ka, kb, 0.9, 0.9, timeout, timeout, opts.Seed+19000+uint64(r)*173)
			cond.QueriesPerService = queries
			for i := range cond.Services {
				cond.Services[i].Boost = kind
			}
			conds[r] = cond
		}
		results, err := testbed.RunBatch(opts.Workers, conds)
		if err != nil {
			return [2]float64{}, err
		}
		var pooled [2][]float64
		for _, res := range results {
			for i := 0; i < 2; i++ {
				pooled[i] = append(pooled[i], res.Services[i].ResponseTimes()...)
			}
		}
		return [2]float64{
			stats.Percentile(pooled[0], 95),
			stats.Percentile(pooled[1], 95),
		}, nil
	}

	for _, pair := range pairs {
		ka, kb, err := pair.kernels()
		if err != nil {
			return nil, err
		}
		base, err := measure(ka, kb, testbed.BoostCache, testbed.NeverBoost)
		if err != nil {
			return nil, err
		}
		for _, kind := range kinds {
			p95, err := measure(ka, kb, kind, 1.0)
			if err != nil {
				return nil, err
			}
			rep.Rows = append(rep.Rows, []string{
				pair.String(), kind.String(),
				fmt.Sprintf("%.2fx", base[0]/p95[0]),
				fmt.Sprintf("%.2fx", base[1]/p95[1]),
			})
		}
	}
	rep.Notes = append(rep.Notes,
		"cache boosts help memory-bound reuse-capable workloads; frequency boosts help compute-bound ones;",
		"the mechanisms compose — motivating joint cache+DVFS policies as future work")
	return rep, nil
}

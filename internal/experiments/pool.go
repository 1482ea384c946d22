package experiments

import (
	"fmt"

	"stac/internal/stats"
	"stac/internal/testbed"
	"stac/internal/workload"
)

func init() {
	register("pool", PoolSharing)
}

// PoolSharing explores the §2 discussion of non-contiguous allocation:
// three collocated services share either the paper's pairwise chain
// layout (each shared span reachable by exactly two neighbours — the
// most contiguous CAT permits) or a single non-contiguous pool all three
// boosts draw from. Same total shared capacity, different sharing
// topology. Pools give the middle workload more reachable shared ways
// but make every boost contend with *all* neighbours.
func PoolSharing(opts Options) (*Report, error) {
	opts = opts.defaults()
	const queries, reps = 160, 3
	kernels := []workload.Kernel{workload.Redis(), workload.BFS(), workload.Spkmeans()}

	measure := func(pool bool, timeout float64) ([3]float64, error) {
		conds := make([]testbed.Condition, reps)
		for rep := range conds {
			cond := testbed.Condition{
				PoolSharing: pool,
				SharedWays:  1,
				Seed:        opts.Seed + 15000 + uint64(rep)*211,
			}
			for _, k := range kernels {
				cond.Services = append(cond.Services, testbed.ServiceSpec{
					Kernel: k, Load: 0.9, Timeout: timeout,
				})
			}
			cond = cond.Defaults()
			cond.QueriesPerService = queries
			conds[rep] = cond
		}
		results, err := testbed.RunBatch(opts.Workers, conds)
		if err != nil {
			return [3]float64{}, err
		}
		// Pool in rep order: the percentile over the pooled slice must not
		// depend on worker scheduling.
		var pooled [3][]float64
		for _, res := range results {
			for i := range res.Services {
				pooled[i] = append(pooled[i], res.Services[i].ResponseTimes()...)
			}
		}
		var out [3]float64
		for i := range out {
			out[i] = stats.Percentile(pooled[i], 95)
		}
		return out, nil
	}

	rep := &Report{
		ID:      "pool",
		Title:   "Chain vs non-contiguous pool sharing (3 services @ 90% load, p95)",
		Columns: []string{"layout", "timeout", "redis p95", "bfs p95", "spkmeans p95"},
	}
	for _, timeout := range []float64{0, 1.5} {
		for _, pool := range []bool{false, true} {
			p95, err := measure(pool, timeout)
			if err != nil {
				return nil, err
			}
			name := "chain"
			if pool {
				name = "pool"
			}
			rep.Rows = append(rep.Rows, []string{
				name, fmt.Sprintf("%.1fx", timeout),
				fmt.Sprintf("%.0fus", 1e6*p95[0]),
				fmt.Sprintf("%.0fus", 1e6*p95[1]),
				fmt.Sprintf("%.0fus", 1e6*p95[2]),
			})
		}
	}
	rep.Notes = append(rep.Notes,
		"real Intel CAT rejects the pool's non-contiguous CBMs; the simulated LLC accepts them",
		"pool boosts reach more shared capacity but contend with every neighbour (n-1 sharers vs <=2)")
	return rep, nil
}

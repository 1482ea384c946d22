package policy

import (
	"testing"

	"stac/internal/core"
	"stac/internal/profile"
	"stac/internal/stats"
	"stac/internal/testbed"
	"stac/internal/workload"
)

// chainDataset profiles a three-service chain (redis, bfs, spkmeans) over
// randomised loads and timeouts.
func chainDataset(t *testing.T, runs, queries int, seed uint64) profile.Dataset {
	t.Helper()
	kernels := []workload.Kernel{workload.Redis(), workload.BFS(), workload.Spkmeans()}
	rng := stats.NewRNG(seed)
	ds := profile.Dataset{Schema: profile.DefaultSchema()}
	for run := 0; run < runs; run++ {
		cond := testbed.Condition{Seed: seed + uint64(run)*97}
		for _, k := range kernels {
			cond.Services = append(cond.Services, testbed.ServiceSpec{
				Kernel:  k,
				Load:    stats.Uniform{Lo: 0.4, Hi: 0.95}.Sample(rng),
				Timeout: stats.Uniform{Lo: 0, Hi: 5}.Sample(rng),
			})
		}
		cond = cond.Defaults()
		cond.SharedWays = 1
		cond.QueriesPerService = queries
		res, err := testbed.Run(cond)
		if err != nil {
			t.Fatal(err)
		}
		for svcIdx := range res.Services {
			rows, err := profile.BuildRows(ds.Schema, res, svcIdx)
			if err != nil {
				t.Fatal(err)
			}
			for r := range rows {
				rows[r].CondID = run
			}
			ds.Rows = append(ds.Rows, rows...)
		}
	}
	return ds
}

func TestChainSearch(t *testing.T) {
	if testing.Short() {
		t.Skip("chain search is slow")
	}
	ds := chainDataset(t, 10, 60, 41)
	model, err := core.TrainDeepForestEA(ds, dfTestConfig(ds), stats.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewPredictor(model, ds, 2, 0)
	if err != nil {
		t.Fatal(err)
	}

	var scenarios []core.Scenario
	for _, svc := range []string{"redis", "bfs", "spkmeans"} {
		s, err := ScenarioTemplate(ds, svc, 0.9, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		scenarios = append(scenarios, s)
	}
	timeouts, err := ChainSearch(p, scenarios, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(timeouts) != 3 {
		t.Fatalf("got %d timeouts, want 3", len(timeouts))
	}
	inGrid := func(v float64) bool {
		for _, g := range TimeoutGrid() {
			if v == g {
				return true
			}
		}
		return false
	}
	for i, to := range timeouts {
		if !inGrid(to) {
			t.Fatalf("timeout %d = %v off grid", i, to)
		}
	}
	t.Logf("chain decision: %v", timeouts)
}

func TestChainSearchErrors(t *testing.T) {
	if _, err := ChainSearch(nil, nil, SearchOptions{}); err == nil {
		t.Fatal("empty chain accepted")
	}
}

func TestMinTimeoutOfOthers(t *testing.T) {
	ts := []float64{3, 1, 5}
	if got := minTimeoutOfOthers(ts, 1); got != 3 {
		t.Fatalf("min of others = %v, want 3", got)
	}
	if got := minTimeoutOfOthers(ts, 2); got != 1 {
		t.Fatalf("min of others = %v, want 1", got)
	}
	if got := minTimeoutOfOthers([]float64{7}, 0); got != profile.TimeoutCap {
		t.Fatalf("single-service fallback = %v, want cap", got)
	}
}

package testbed

import (
	"testing"

	"stac/internal/counters"
	"stac/internal/workload"
)

// TestCounterAttributionConservation checks the proxy's counter
// book-keeping: the counters attributed to individual query executions
// must never exceed the service's cumulative counters at the end of the
// run, and measured queries should account for the bulk of them
// (warm-up and in-flight executions take the rest).
func TestCounterAttributionConservation(t *testing.T) {
	cond := Pair(workload.Redis(), workload.BFS(), 0.8, 0.8, 1, 1, 53)
	cond.QueriesPerService = 120
	m, err := NewMachine(cond)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The slower service (bfs) stops processing right after its measured
	// budget, so its measured queries must hold the bulk of its counters.
	// The faster service keeps serving unmeasured queries while the slow
	// one catches up, so only a floor applies there.
	minShare := map[string]float64{"bfs": 0.5, "redis": 0.05}
	for i, svc := range res.Services {
		total := m.snapshot(m.svcs[i])
		for _, ctr := range []counters.Counter{counters.LLCAccesses, counters.L1DLoads, counters.Instructions} {
			var queryTotal float64
			for _, q := range svc.Queries {
				queryTotal += q.Counters[ctr]
			}
			if total[ctr] <= 0 {
				t.Fatalf("%s: no %v activity recorded", svc.Name, ctr)
			}
			if queryTotal > total[ctr]*1.0001 {
				t.Fatalf("%s: attributed %v (%v) exceeds the service total (%v)",
					svc.Name, ctr, queryTotal, total[ctr])
			}
			if frac := queryTotal / total[ctr]; frac < minShare[svc.Name] {
				t.Fatalf("%s: measured queries hold only %.0f%% of %v", svc.Name, 100*frac, ctr)
			}
		}
	}
}

package main

import (
	"runtime"
	"testing"

	"stac/internal/fleet"
	"stac/internal/serve"
)

// workerCounts is 1 and the CPU count: every simulated metric must be
// identical at both.
func workerCounts() []int { return []int{1, runtime.NumCPU()} }

func withWorkers(t *testing.T, workers int) options {
	t.Helper()
	prev := runtime.GOMAXPROCS(workers)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	return options{seed: 2, workers: workers}
}

func TestPipelineSimMetricsIgnoreWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full pipeline passes")
	}
	var sims [][4]float64
	for _, w := range workerCounts() {
		p := newPipeline(withWorkers(t, w))
		r, err := p.pass(p.passSeed(0), fullPass, nil)
		if err != nil {
			t.Fatalf("workers %d: %v", w, err)
		}
		if len(r.failures) > 0 {
			t.Errorf("workers %d: checks failed: %v", w, r.failures)
		}
		sims = append(sims, [4]float64{r.decideSpeedup, r.decideAPE, r.searchSpeedup, r.searchAPE})
	}
	if sims[0] != sims[1] {
		t.Errorf("simulated pipeline metrics differ across worker counts: %v vs %v", sims[0], sims[1])
	}
}

func TestFleetSimMetricsIgnoreWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full fleet runs")
	}
	var results []*fleet.Result
	for _, w := range workerCounts() {
		f := newFleetBench(withWorkers(t, w))
		res, err := fleet.Run(f.config(f.o.seed*1000, fleetEpochs))
		if err != nil {
			t.Fatalf("workers %d: %v", w, err)
		}
		results = append(results, res)
	}
	a, b := results[0], results[1]
	if a.FleetP95 != b.FleetP95 || a.Queries != b.Queries || len(a.Migrations) != len(b.Migrations) {
		t.Errorf("fleet results differ across worker counts: p95 %v/%v, queries %d/%d, migrations %d/%d",
			a.FleetP95, b.FleetP95, a.Queries, b.Queries, len(a.Migrations), len(b.Migrations))
	}
}

func TestServedPredictionsIgnoreWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two serving models")
	}
	reqs := []serve.PredictRequest{
		{Service: "redis", Load: 0.5, Timeout: 1, PartnerLoad: 0.4, PartnerTimeout: 2},
		{Service: "social", Load: 0.8, Timeout: 0, PartnerLoad: 0.7, PartnerTimeout: 4.5},
		{Service: "redis", Load: 0.3, Timeout: 3, PartnerLoad: 0.1, PartnerTimeout: 0.5},
	}
	var eas [][]float64
	for _, w := range workerCounts() {
		s := newServeBench(withWorkers(t, w))
		if err := s.setup(nil); err != nil {
			t.Fatalf("workers %d: %v", w, err)
		}
		var got []float64
		for _, req := range reqs {
			resp, err := s.engine.Predict(req)
			if err != nil {
				t.Fatalf("workers %d: %v", w, err)
			}
			got = append(got, resp.EA)
		}
		s.engine.Close()
		eas = append(eas, got)
	}
	for i := range reqs {
		if eas[0][i] != eas[1][i] {
			t.Errorf("request %d: EA %v at 1 worker, %v at %d", i, eas[0][i], eas[1][i], runtime.NumCPU())
		}
	}
}

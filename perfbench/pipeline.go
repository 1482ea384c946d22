package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"stac"
	"stac/internal/core"
	"stac/internal/obs"
	"stac/internal/policy"
	"stac/internal/stats"
	"stac/internal/surrogate"
	"stac/internal/testbed"
	"stac/internal/workload"
)

// pipeline answers the paper's question for redis + social at ρ = 0.9,
// once per operation and with a fresh seed each time. The paper half
// profiles, trains and decides, then measures the decision on the
// testbed; the search half ranks every CAT mask plan with the surrogate
// and validates the top plans.
type pipeline struct {
	o      options
	a, b   stac.Kernel
	passes []passResult
}

const (
	pairLoad     = 0.9
	validateTopK = 3
)

// passSize scales one pass. The set-up warms the process with a small
// pass; the timed operations run the full one.
type passSize struct {
	points, queries  int // profiling conditions and queries per condition
	evalQueries      int // queries per service in the decision's testbed runs
	accesses         int // miss-ratio trace length per kernel
	plans            int // plans swept (0 = every plan)
	topK, valQueries int // plans validated and their run length
}

var (
	fullPass   = passSize{points: 40, queries: 100, evalQueries: 250, accesses: 40000, topK: validateTopK, valQueries: 150}
	warmupPass = passSize{points: 8, queries: 40, evalQueries: 60, accesses: 8000, plans: 300, topK: 1, valQueries: 60}
)

type passResult struct {
	traced                   bool
	decideS, searchS         float64
	decideSpeedup, decideAPE float64
	searchSpeedup, searchAPE float64
	usPerPlan                float64
	testbedRuns, truncated   float64
	failures                 []string
}

func newPipeline(o options) *pipeline {
	return &pipeline{o: o, a: workload.Redis(), b: workload.Social()}
}

func (p *pipeline) passSeed(i int) uint64 { return p.o.seed*1000 + uint64(i) }

func (p *pipeline) setup(*tracer) error {
	_, err := p.pass(p.passSeed(999), warmupPass, nil)
	return err
}

func (p *pipeline) setupLayers() bool { return false }

func (p *pipeline) more(_ int, elapsed, budget float64) bool { return elapsed < budget }

func (p *pipeline) op(i int, tr *tracer) (opResult, error) {
	runs, truncated := obs.C("testbed/runs"), obs.C("testbed/truncated_runs")
	runs0, truncated0 := runs.Load(), truncated.Load()
	start := time.Now()
	r, err := p.pass(p.passSeed(i), fullPass, tr)
	if err != nil {
		return opResult{}, err
	}
	seconds := time.Since(start).Seconds()
	r.traced = tr != nil
	r.testbedRuns = float64(runs.Load() - runs0)
	r.truncated = float64(truncated.Load() - truncated0)
	p.passes = append(p.passes, r)
	layers := map[string]float64{
		"pipeline.decide_s":       r.decideS,
		"pipeline.search_s":       r.searchS,
		"pipeline.decide_speedup": r.decideSpeedup,
		"pipeline.decide_ape_pct": r.decideAPE,
		"pipeline.search_speedup": r.searchSpeedup,
		"pipeline.search_ape_pct": r.searchAPE,
		"surrogate.us_per_plan":   r.usPerPlan,
		"fail_ratio":              r.truncated / r.testbedRuns,
	}
	return opResult{seconds: seconds, layers: layers}, nil
}

// pass runs one paper half and one search half.
func (p *pipeline) pass(seed uint64, sz passSize, tr *tracer) (passResult, error) {
	var r passResult
	// Paper half: profile, train, decide.
	start := time.Now()
	var ds stac.Dataset
	err := tr.call("profile", func() (err error) {
		ds, err = stac.Profile(stac.ProfileOptions{
			KernelA: p.a, KernelB: p.b, Points: sz.points, QueriesPerCondition: sz.queries,
			Seed: seed, Workers: p.o.workers,
		})
		return err
	})
	if err != nil {
		return r, fmt.Errorf("profile: %w", err)
	}
	var pred *stac.Predictor
	err = tr.call("train", func() (err error) {
		pred, err = stac.Train(ds, stac.TrainOptions{Seed: seed + 1, Workers: p.o.workers})
		return err
	})
	if err != nil {
		return r, fmt.Errorf("train: %w", err)
	}
	var scen [2]core.Scenario
	var dec policy.Decision
	err = tr.call("decide", func() (err error) {
		for i, k := range []stac.Kernel{p.a, p.b} {
			if scen[i], err = stac.NewScenario(ds, k.Name, pairLoad, pairLoad); err != nil {
				return err
			}
		}
		dec, err = policy.ModelDriven(pred, scen[0], scen[1], policy.SearchOptions{})
		return err
	})
	if err != nil {
		return r, fmt.Errorf("decide: %w", err)
	}
	r.decideS = time.Since(start).Seconds()

	// Measure the decision: p95 speedups over no sharing, and one run
	// under it to score the predictor's p95 (the paper's APE).
	ctx := policy.PairContext{KernelA: p.a, KernelB: p.b, LoadA: pairLoad, LoadB: pairLoad,
		QueriesPerService: sz.evalQueries, Seed: seed + 2}
	var sp [2]float64
	if err := tr.call("speedups", func() (err error) {
		sp, err = policy.Speedups(ctx, dec)
		return err
	}); err != nil {
		return r, fmt.Errorf("speedups: %w", err)
	}
	var measured *testbed.RunResult
	if err := tr.call("evaluate", func() (err error) {
		measured, err = policy.Evaluate(ctx, dec)
		return err
	}); err != nil {
		return r, fmt.Errorf("evaluate: %w", err)
	}
	var predicted [2]core.Prediction
	if err := tr.call("decide", func() error {
		timeouts := [2]float64{dec.TimeoutA, dec.TimeoutB}
		for i := range scen {
			s := scen[i]
			s.Timeout, s.PartnerTimeout = timeouts[i], timeouts[1-i]
			var err error
			if predicted[i], err = pred.PredictResponse(s); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return r, fmt.Errorf("predict: %w", err)
	}
	r.decideSpeedup = math.Sqrt(sp[0] * sp[1])
	for i := range predicted {
		r.decideAPE += 50 * stats.APE(measured.Services[i].P95Response(), predicted[i].P95Response)
	}

	// Search half: surrogate set-up, full plan sweep, top-k validation.
	start = time.Now()
	var s *surrogate.Searcher
	if err := tr.call("surrogate_setup", func() (err error) {
		s, err = surrogate.New(surrogate.Config{KernelA: p.a, KernelB: p.b,
			LoadA: pairLoad, LoadB: pairLoad, Accesses: sz.accesses, Seed: seed})
		return err
	}); err != nil {
		return r, fmt.Errorf("surrogate: %w", err)
	}
	plans := s.EnumeratePlans()
	if sz.plans > 0 {
		plans = plans[:sz.plans]
	}
	var ranked []surrogate.Evaluation
	var sweepS float64
	if err := tr.call("sweep", func() (err error) {
		t := time.Now()
		ranked, err = s.Search(plans)
		sweepS = time.Since(t).Seconds()
		return err
	}); err != nil {
		return r, fmt.Errorf("sweep: %w", err)
	}
	var vals []surrogate.Validated
	if err := tr.call("validate", func() (err error) {
		vals, err = s.Validate(ranked, sz.topK, sz.valQueries)
		return err
	}); err != nil {
		return r, fmt.Errorf("validate: %w", err)
	}
	r.searchS = time.Since(start).Seconds()
	r.usPerPlan = sweepS * 1e6 / float64(len(plans))

	// Output checks.
	grid := policy.TimeoutGrid()
	if !slices.Contains(grid, dec.TimeoutA) || !slices.Contains(grid, dec.TimeoutB) {
		r.failures = append(r.failures, fmt.Sprintf("decision timeouts (%v, %v) not on the grid %v",
			dec.TimeoutA, dec.TimeoutB, grid))
	}
	if sz.plans == 0 && len(ranked) != len(s.EnumeratePlans()) {
		r.failures = append(r.failures, fmt.Sprintf("ranked %d plans, the plan space has %d",
			len(ranked), len(s.EnumeratePlans())))
	}
	speedups := sp[:]
	for _, v := range vals {
		speedups = append(speedups, v.MeasuredSpeedup[:]...)
	}
	for _, x := range speedups {
		if !(x > 0) || math.IsInf(x, 0) {
			r.failures = append(r.failures, fmt.Sprintf("measured speedup %v is not finite and positive", x))
		}
	}
	if len(vals) != sz.topK {
		return r, fmt.Errorf("validated %d plans, want %d", len(vals), sz.topK)
	}
	r.searchSpeedup = vals[0].MeasuredScore
	for i := 0; i < 2; i++ {
		r.searchAPE += 50 * stats.APE(vals[0].MeasuredP95[i], vals[0].P95[i])
	}
	return r, nil
}

func (p *pipeline) outcome() outcome {
	var o outcome
	var answerMS, decideS, searchS []float64
	for _, r := range p.passes {
		o.attempted += int64(r.testbedRuns)
		o.failed += int64(r.truncated)
		o.failures = append(o.failures, r.failures...)
		if !r.traced {
			answerMS = append(answerMS, 1000*(r.decideS+r.searchS))
			decideS = append(decideS, r.decideS)
			searchS = append(searchS, r.searchS)
		}
	}
	// Simulated results come from the first pass, whose seed every run
	// with this --seed shares.
	first := p.passes[0]
	o.latencyMS = stats.Median(answerMS)
	o.report = []namedValue{
		{"passes", float64(len(p.passes)), "count"},
		{"decide_s", stats.Median(decideS), "s"},
		{"search_s", stats.Median(searchS), "s"},
		{"decide_speedup", first.decideSpeedup, "x"},
		{"decide_ape_pct", first.decideAPE, "%"},
		{"search_speedup", first.searchSpeedup, "x"},
		{"search_ape_pct", first.searchAPE, "%"},
		{"fail_ratio", float64(o.failed) / float64(o.attempted), "ratio"},
	}
	return o
}

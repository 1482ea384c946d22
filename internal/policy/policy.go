// Package policy implements short-term allocation policy selection: the
// paper's model-driven timeout search (§5.2) and the competing cache
// allocation approaches it is evaluated against in Figure 8 — no sharing,
// static allocation, workload-aware dCat, IPC-driven dynaSprint, and a
// simple-ML variant of the model-driven search.
//
// A policy's job is to pick the timeout vector (one per collocated
// service). Baselines that, in the original systems, rely on runtime
// feedback (dCat, dynaSprint) are implemented with short probe runs on
// the testbed, mirroring how those systems observe the real machine. The
// model-driven approaches consult only the trained predictor.
package policy

import (
	"fmt"
	"math"

	"stac/internal/core"
	"stac/internal/par"
	"stac/internal/profile"
	"stac/internal/stats"
	"stac/internal/testbed"
	"stac/internal/workload"
)

// PairContext describes the deployment a policy must configure: two
// collocated services at given loads.
type PairContext struct {
	KernelA, KernelB workload.Kernel
	LoadA, LoadB     float64
	// QueriesPerService for evaluation runs (probe runs use fewer).
	QueriesPerService int
	Seed              uint64
}

// Defaults fills unset fields with the evaluation settings of §5.2
// (arrival rate at 90 % of service rate).
func (c PairContext) Defaults() PairContext {
	if c.LoadA == 0 {
		c.LoadA = 0.9
	}
	if c.LoadB == 0 {
		c.LoadB = 0.9
	}
	if c.QueriesPerService == 0 {
		c.QueriesPerService = 250
	}
	return c
}

// condition builds the testbed condition for given timeouts and loads.
func (c PairContext) condition(tA, tB, loadA, loadB float64, queries int, seedOff uint64) testbed.Condition {
	cond := testbed.Pair(c.KernelA, c.KernelB, loadA, loadB, tA, tB, c.Seed+seedOff)
	cond.QueriesPerService = queries
	return cond
}

// Decision is a chosen policy: the timeout vector for the pair.
type Decision struct {
	Name               string
	TimeoutA, TimeoutB float64
}

// TimeoutGrid returns the paper's searched timeout settings: 5 per
// workload spanning always-boost to rarely-boost (§5.2 explores 25
// combinations per pair).
func TimeoutGrid() []float64 {
	return []float64{0, 0.5, 1.5, 3, 4.5}
}

// Evaluate runs the testbed under a decision at the context's loads and
// returns the measurement.
func Evaluate(ctx PairContext, d Decision) (*testbed.RunResult, error) {
	ctx = ctx.Defaults()
	cond := ctx.condition(d.TimeoutA, d.TimeoutB, ctx.LoadA, ctx.LoadB, ctx.QueriesPerService, 900001)
	return testbed.Run(cond)
}

// evalReps is the number of independent evaluation runs pooled per
// decision: tail percentiles from a single run at 90 % load are far too
// noisy to rank policies.
const evalReps = 4

// measureP95 pools response times over evalReps independent runs (fanned
// out across the par pool; seeds are fixed per rep before dispatch, so
// the pooled percentile is worker-count-independent) and returns the
// per-service 95th percentiles.
func measureP95(ctx PairContext, d Decision) ([2]float64, error) {
	conds := make([]testbed.Condition, evalReps)
	for rep := range conds {
		conds[rep] = ctx.condition(d.TimeoutA, d.TimeoutB, ctx.LoadA, ctx.LoadB,
			ctx.QueriesPerService, 900001+uint64(rep)*131)
	}
	runs, err := testbed.RunBatch(0, conds)
	if err != nil {
		return [2]float64{}, err
	}
	var pooled [2][]float64
	for rep, run := range runs {
		// Truncated runs censor exactly the slow tail that p95 ranks
		// policies by — pooling them would silently flatter bad timeouts.
		if err := run.RequireComplete(); err != nil {
			return [2]float64{}, fmt.Errorf("policy: evaluation rep %d: %w", rep, err)
		}
		for i := 0; i < 2; i++ {
			pooled[i] = append(pooled[i], run.Services[i].ResponseTimes()...)
		}
	}
	var out [2]float64
	for i := 0; i < 2; i++ {
		out[i] = stats.Percentile(pooled[i], 95)
		if out[i] <= 0 {
			return [2]float64{}, fmt.Errorf("policy: degenerate p95 for service %d", i)
		}
	}
	return out, nil
}

// Speedups compares a decision against the no-sharing baseline and
// returns per-service speedups in 95th-percentile response time
// (baseline / decision), the metric of Figure 8. Each side pools
// several independent runs.
func Speedups(ctx PairContext, d Decision) ([2]float64, error) {
	ctx = ctx.Defaults()
	base, err := measureP95(ctx, NoSharing())
	if err != nil {
		return [2]float64{}, err
	}
	dec, err := measureP95(ctx, d)
	if err != nil {
		return [2]float64{}, err
	}
	return [2]float64{base[0] / dec[0], base[1] / dec[1]}, nil
}

// NoSharing is the Figure 8 baseline: each workload uses only its private
// cache (short-term allocation never triggers).
func NoSharing() Decision {
	return Decision{Name: "no sharing", TimeoutA: testbed.NeverBoost, TimeoutB: testbed.NeverBoost}
}

// Static chooses between full sharing (both services may always use the
// shared region) and private-only, whichever performs better — the
// static allocation practice the paper compares against. It probes both
// configurations on the testbed.
func Static(ctx PairContext) (Decision, error) {
	ctx = ctx.Defaults()
	probeQ := ctx.QueriesPerService / 2
	share := ctx.condition(0, 0, ctx.LoadA, ctx.LoadB, probeQ, 11)
	priv := ctx.condition(testbed.NeverBoost, testbed.NeverBoost, ctx.LoadA, ctx.LoadB, probeQ, 12)
	shareRun, err := testbed.Run(share)
	if err != nil {
		return Decision{}, err
	}
	privRun, err := testbed.Run(priv)
	if err != nil {
		return Decision{}, err
	}
	// Compare by the geometric mean of per-service p95 (balanced view).
	score := func(r *testbed.RunResult) float64 {
		return math.Sqrt(r.Services[0].P95Response() * r.Services[1].P95Response())
	}
	if score(shareRun) <= score(privRun) {
		return Decision{Name: "static", TimeoutA: 0, TimeoutB: 0}, nil
	}
	return Decision{Name: "static", TimeoutA: testbed.NeverBoost, TimeoutB: testbed.NeverBoost}, nil
}

// DCat implements the workload-aware allocation of Xu et al. [31]: the
// shared region goes to whichever workload gains the larger speedup from
// it (throughput profiling with fixed workload phases); the other keeps
// only private cache.
func DCat(ctx PairContext) (Decision, error) {
	ctx = ctx.Defaults()
	probeQ := ctx.QueriesPerService / 2
	aOnly := ctx.condition(0, testbed.NeverBoost, ctx.LoadA, ctx.LoadB, probeQ, 21)
	bOnly := ctx.condition(testbed.NeverBoost, 0, ctx.LoadA, ctx.LoadB, probeQ, 22)
	base := ctx.condition(testbed.NeverBoost, testbed.NeverBoost, ctx.LoadA, ctx.LoadB, probeQ, 23)

	baseRun, err := testbed.Run(base)
	if err != nil {
		return Decision{}, err
	}
	aRun, err := testbed.Run(aOnly)
	if err != nil {
		return Decision{}, err
	}
	bRun, err := testbed.Run(bOnly)
	if err != nil {
		return Decision{}, err
	}
	speedA := baseRun.Services[0].MeanServiceTime() / aRun.Services[0].MeanServiceTime()
	speedB := baseRun.Services[1].MeanServiceTime() / bRun.Services[1].MeanServiceTime()
	if speedA >= speedB {
		return Decision{Name: "dCat", TimeoutA: 0, TimeoutB: testbed.NeverBoost}, nil
	}
	return Decision{Name: "dCat", TimeoutA: testbed.NeverBoost, TimeoutB: 0}, nil
}

// DynaSprint implements the IPC-driven dynamic allocation of Huang et
// al. [12] as characterised in §5.2: timeouts are tuned for maximum
// performance under *low* arrival rate and reused unchanged under high
// rate, ignoring queueing delay. Probes run at 30 % load.
func DynaSprint(ctx PairContext) (Decision, error) {
	ctx = ctx.Defaults()
	const probeLoad = 0.3
	probeQ := ctx.QueriesPerService / 3
	grid := TimeoutGrid()

	// Probe the whole grid across the par pool; the winner is selected by
	// scanning scores in grid order, so ties resolve to the same cell at
	// any worker count.
	conds := make([]testbed.Condition, 0, len(grid)*len(grid))
	for i, tA := range grid {
		for j, tB := range grid {
			conds = append(conds, ctx.condition(tA, tB, probeLoad, probeLoad, probeQ, uint64(31+i*len(grid)+j)))
		}
	}
	runs, err := testbed.RunBatch(0, conds)
	if err != nil {
		return Decision{}, err
	}
	best := Decision{Name: "dynaSprint"}
	bestScore := math.Inf(1)
	for k, run := range runs {
		// Low-load objective: mean response, normalised per service.
		score := run.Services[0].MeanResponse()/run.Services[0].ExpServiceTime +
			run.Services[1].MeanResponse()/run.Services[1].ExpServiceTime
		if score < bestScore {
			bestScore = score
			best.TimeoutA, best.TimeoutB = grid[k/len(grid)], grid[k%len(grid)]
		}
	}
	return best, nil
}

// SearchOptions configures the model-driven search. It has no settings:
// the search fixes what §5.2 fixes, the paper's timeout grid
// (TimeoutGrid) and a 5 % SLO band.
type SearchOptions struct{}

// sloBand is the relative band for step 1 of the matching policy:
// settings within 5 % of a service's lowest predicted response.
const sloBand = 0.05

// ModelDriven searches the timeout grid with a trained predictor — the
// paper's approach. Scenario templates for each service supply the
// calibrated quantities; the search fills in loads and timeout pairs.
//
// The SLO-driven matching of §5.2: (1) per service, find settings whose
// predicted response is within the band of that service's lowest
// predicted response; (2) pick a setting in the intersection. When the
// intersection is empty the combination minimising the worse normalised
// response is chosen.
//
// The grid's predictions run on p.Workers() workers; the decision is
// the same at any count.
func ModelDriven(p *core.Predictor, scenarioA, scenarioB core.Scenario, opts SearchOptions) (Decision, error) {
	d, _, err := modelDriven(p, scenarioA, scenarioB, opts)
	return d, err
}

// modelDriven is ModelDriven that also returns the median-filtered grids
// of predicted mean response it matched on, service A's then B's, each
// indexed [A's timeout][B's timeout].
func modelDriven(p *core.Predictor, scenarioA, scenarioB core.Scenario, _ SearchOptions) (Decision, [2][][]float64, error) {
	grid := TimeoutGrid()
	n := len(grid)

	// The 2·n² predictions are independent: fan them out over the
	// predictor's workers, each into its own slot. Task (i·n+j)·2+side
	// predicts one side of cell (i, j), so the lowest-index error is the
	// one a serial scan meets first.
	respA := make([][]float64, n)
	respB := make([][]float64, n)
	for i := range respA {
		respA[i] = make([]float64, n)
		respB[i] = make([]float64, n)
	}
	err := par.ForEach(p.Workers(), 2*n*n, func(t int) error {
		i, j := t/2/n, t/2%n
		s, resp := scenarioA, respA
		s.Timeout, s.PartnerTimeout = grid[i], grid[j]
		if t%2 == 1 {
			s, resp = scenarioB, respB
			s.Timeout, s.PartnerTimeout = grid[j], grid[i]
		}
		pr, err := p.PredictResponse(s)
		if err != nil {
			return err
		}
		// The search optimises predicted *mean* response: tail
		// estimates carry far more simulation and model noise, and a
		// policy with low mean response almost always has a low tail
		// as well (the testbed's tails are queueing-delay-driven).
		resp[i][j] = pr.MeanResponse
		return nil
	})
	if err != nil {
		return Decision{}, [2][][]float64{}, err
	}

	// The true response surface is smooth in the timeout plane (adjacent
	// timeouts yield near-identical boost behaviour), so single-cell
	// spikes in the predicted grid are model artefacts. A 3×3 median
	// filter removes them before the SLO matching; without it one
	// spurious dip can hijack the whole search.
	respA = medianFilterGrid(respA)
	respB = medianFilterGrid(respB)
	bestA, bestB := math.Inf(1), math.Inf(1)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			bestA = math.Min(bestA, respA[i][j])
			bestB = math.Min(bestB, respB[i][j])
		}
	}

	// Step 1 + 2: intersect the per-service SLO bands.
	type combo struct{ i, j int }
	var intersect []combo
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			okA := respA[i][j] <= bestA*(1+sloBand)
			okB := respB[i][j] <= bestB*(1+sloBand)
			if okA && okB {
				intersect = append(intersect, combo{i, j})
			}
		}
	}
	pick := combo{-1, -1}
	if len(intersect) > 0 {
		// Prefer the intersecting combo with the best combined response.
		best := math.Inf(1)
		for _, c := range intersect {
			s := respA[c.i][c.j]/bestA + respB[c.i][c.j]/bestB
			if s < best {
				best = s
				pick = c
			}
		}
	} else {
		// Balance: minimise the worse normalised response.
		best := math.Inf(1)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				s := math.Max(respA[i][j]/bestA, respB[i][j]/bestB)
				if s < best {
					best = s
					pick = combo{i, j}
				}
			}
		}
	}
	return Decision{Name: "model driven", TimeoutA: grid[pick.i], TimeoutB: grid[pick.j]},
		[2][][]float64{respA, respB}, nil
}

// ScenarioTemplate builds the scenario skeleton for one side of a pair
// from its profiling library: calibrated service time and variability
// come from the service's rows; loads and timeouts are filled in by the
// search. A typical call uses the training split that also trained the
// predictor.
func ScenarioTemplate(lib profile.Dataset, service string, load, partnerLoad float64) (core.Scenario, error) {
	rows := lib.FilterService(service)
	if rows.Len() == 0 {
		return core.Scenario{}, fmt.Errorf("policy: no profiles for service %q", service)
	}
	// Static layout features (ways, boost ratio, sampling period) must
	// match the profiled deployment, or search scenarios fall off the
	// training manifold; average them from the service's own rows.
	var exp, cv, priv, shared, ratio, period float64
	for _, r := range rows.Rows {
		exp = r.ExpService
		cv += r.STCV
		priv += r.Features[profile.FeatPrivateWays]
		shared += r.Features[profile.FeatSharedWays]
		ratio += r.Features[profile.FeatBoostRatio]
		period += r.Features[profile.FeatSamplePeriod]
	}
	n := float64(rows.Len())
	return core.Scenario{
		Static: profile.Static{
			Load:            load,
			PartnerLoad:     partnerLoad,
			PrivateWays:     int(priv/n + 0.5),
			SharedWays:      int(shared/n + 0.5),
			BoostRatio:      ratio / n,
			SamplePeriodRel: period / n,
		},
		Service:    service,
		ExpService: exp,
		ServiceCV:  cv / n,
	}, nil
}

// medianFilterGrid applies a 3×3 median filter to a square grid of
// predictions (edges use the available neighbourhood).
func medianFilterGrid(g [][]float64) [][]float64 {
	n := len(g)
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
		for j := range out[i] {
			var vals []float64
			for di := -1; di <= 1; di++ {
				for dj := -1; dj <= 1; dj++ {
					ii, jj := i+di, j+dj
					if ii >= 0 && ii < n && jj >= 0 && jj < n {
						vals = append(vals, g[ii][jj])
					}
				}
			}
			out[i][j] = stats.Median(vals)
		}
	}
	return out
}

// Package stac is a from-scratch Go reproduction of "Performance Modeling
// for Short-Term Cache Allocation" (Morris, Stewart, Chen, Birke —
// ICPP '22). Short-term cache allocation grants and revokes access to
// last-level-cache ways dynamically: a query execution that exceeds a
// response-time timeout is temporarily switched to a class of service
// with more ways. This package exposes the complete pipeline the paper
// describes:
//
//   - a simulated testbed (collocated services on a CAT-partitioned Xeon)
//     that produces ground-truth response times and counter profiles,
//   - Stage 1 profiling: effective-cache-allocation measurement and
//     stratified condition sampling,
//   - Stage 2 learning: a deep forest (multi-grain scanning + cascades)
//     that predicts effective allocation from profiles,
//   - Stage 3 first-principles modeling: a G/G/k simulator with
//     timeout-triggered speedups that converts effective allocation into
//     response-time predictions, and
//   - model-driven policy search with the competing baselines of the
//     paper's evaluation (static, dCat, dynaSprint, simple-ML).
//
// The facade re-exports the library's main types via aliases; the
// underlying packages live in internal/ and are documented individually.
//
// A minimal end-to-end flow:
//
//	redis, _ := stac.WorkloadByName("redis")
//	bfs, _ := stac.WorkloadByName("bfs")
//	ds, _ := stac.Profile(stac.ProfileOptions{KernelA: redis, KernelB: bfs, Points: 40, Seed: 1})
//	pred, _ := stac.Train(ds, stac.TrainOptions{Seed: 2})
//	scenA, _ := stac.NewScenario(ds, "redis", 0.9, 0.9)
//	scenB, _ := stac.NewScenario(ds, "bfs", 0.9, 0.9)
//	decision, _ := stac.FindPolicy(pred, scenA, scenB)
package stac

import (
	"fmt"

	cachepkg "stac/internal/cache"
	"stac/internal/cat"
	"stac/internal/core"
	"stac/internal/deepforest"
	"stac/internal/policy"
	"stac/internal/profile"
	"stac/internal/stats"
	"stac/internal/surrogate"
	"stac/internal/testbed"
	"stac/internal/workload"
)

// Re-exported types. Their methods and fields are documented on the
// underlying internal packages.
type (
	// Kernel is one of the eight Table 1 benchmark workloads.
	Kernel = workload.Kernel
	// Condition is a runtime condition executable on the testbed.
	Condition = testbed.Condition
	// ServiceSpec configures one collocated service within a Condition.
	ServiceSpec = testbed.ServiceSpec
	// RunResult is a testbed measurement.
	RunResult = testbed.RunResult
	// Processor is a simulated evaluation platform.
	Processor = testbed.Processor
	// Dataset is a set of profiling rows (Stage 1 output).
	Dataset = profile.Dataset
	// Point is one sampled runtime condition for a collocated pair.
	Point = profile.Point
	// Scenario describes a runtime condition for prediction.
	Scenario = core.Scenario
	// Prediction is the pipeline's response-time prediction.
	Prediction = core.Prediction
	// Predictor is the trained three-stage pipeline.
	Predictor = core.Predictor
	// Decision is a chosen short-term allocation policy (timeout vector).
	Decision = policy.Decision
	// PairContext describes a deployment for policy selection.
	PairContext = policy.PairContext
	// Searcher is the surrogate fast path: exact miss-ratio curves + an
	// anchored analytical cache model + the Stage-3 queueing simulator,
	// ranking thousands of CAT mask plans without touching the packed
	// simulator.
	Searcher = surrogate.Searcher
	// SearchConfig parameterises a Searcher.
	SearchConfig = surrogate.Config
	// MaskPlan is one candidate layout + timeout plan.
	MaskPlan = surrogate.Plan
	// PlanEvaluation is the surrogate's prediction for one plan.
	PlanEvaluation = surrogate.Evaluation
	// ValidatedPlan pairs a prediction with testbed ground truth.
	ValidatedPlan = surrogate.Validated
)

// NeverBoost is the timeout value that disables short-term allocation.
var NeverBoost = testbed.NeverBoost

// Workloads returns the eight benchmark kernels of the paper's Table 1.
func Workloads() []Kernel { return workload.All() }

// WorkloadByName looks up a kernel by its Table 1 identifier (jacobi,
// knn, kmeans, spkmeans, spstream, bfs, social, redis).
func WorkloadByName(name string) (Kernel, error) { return workload.ByName(name) }

// DefaultProcessor returns the paper's default platform (Xeon E5-2683:
// 16 cores, 40 MB LLC in 20 ways).
func DefaultProcessor() Processor { return testbed.XeonE5_2683() }

// Processors returns the five evaluation platforms of Figure 7b.
func Processors() []Processor { return testbed.Processors() }

// Run executes a runtime condition on the simulated testbed and returns
// ground-truth measurements.
func Run(cond Condition) (*RunResult, error) { return testbed.Run(cond) }

// Collocate builds the canonical two-service condition: kernels a and b
// at the given loads with the given relative timeouts.
func Collocate(a, b Kernel, loadA, loadB, timeoutA, timeoutB float64, seed uint64) Condition {
	return testbed.Pair(a, b, loadA, loadB, timeoutA, timeoutB, seed)
}

// MissCurvePoint measures one point of a workload's miss-ratio curve: the
// fraction of accesses that reach memory when the kernel runs solo with
// the given number of allocated LLC ways. Useful for understanding which
// workloads can convert short-term allocations into speedup.
func MissCurvePoint(proc Processor, k Kernel, ways, accesses int, seed uint64) (float64, error) {
	h, err := cachepkg.NewHierarchy(proc.HierarchyConfig())
	if err != nil {
		return 0, err
	}
	h.SetMask(0, cat.Setting{Offset: 0, Length: ways}.Mask())
	rng := stats.NewRNG(seed)
	pat := k.NewPattern(1 << 30)
	for i := 0; i < accesses; i++ {
		a := pat.Next(rng)
		h.Access(0, 0, a.Addr, a.Write)
	}
	llc := h.LLC().Stats(0)
	return float64(llc.Misses) / float64(accesses), nil
}

// ProfileOptions configures Stage 1 profiling for one collocated pair.
type ProfileOptions struct {
	// KernelA and KernelB are the collocated workloads.
	KernelA, KernelB Kernel
	// Points is the number of runtime conditions to profile (default 40).
	Points int
	// QueriesPerCondition is the measured queries per service per
	// condition (default 100).
	QueriesPerCondition int
	// UseUniform forces uniform condition sampling; by default the §4
	// stratified sampler seeds, clusters by measured effective
	// allocation, and samples around the regime centroids.
	UseUniform bool
	// Processor defaults to the Xeon E5-2683.
	Processor Processor
	// Seed drives all randomness.
	Seed uint64
	// Workers bounds profiling parallelism (0 = GOMAXPROCS, 1 =
	// sequential). The collected dataset is identical at any count.
	Workers int
}

// Profile collects a profiling dataset for a collocated pair, sampling
// runtime conditions with the stratified sampler by default.
func Profile(opts ProfileOptions) (Dataset, error) {
	points := opts.Points
	if points <= 0 {
		points = 40
	}
	copts := profile.CollectOptions{
		KernelA:           opts.KernelA,
		KernelB:           opts.KernelB,
		Processor:         opts.Processor,
		QueriesPerService: opts.QueriesPerCondition,
		Seed:              opts.Seed,
		Workers:           opts.Workers,
	}
	rng := stats.NewRNG(opts.Seed)
	var pts []Point
	if opts.UseUniform {
		pts = profile.UniformPoints(points, rng)
	} else {
		nSeeds := points / 3
		if nSeeds < 4 {
			nSeeds = 4
		}
		if nSeeds > points {
			nSeeds = points
		}
		pts = profile.StratifiedPoints(points, nSeeds, 4, func(p Point) float64 {
			return profile.EvalEA(copts, p)
		}, rng, opts.Workers)
	}
	return profile.Collect(copts, pts)
}

// ChainProfileOptions configures profiling for a chain of three or more
// collocated services (cat.PlanChain layout).
type ChainProfileOptions struct {
	// Kernels are the collocated workloads, in chain order.
	Kernels []Kernel
	// Runs is the number of randomised profiling conditions (default 14).
	Runs int
	// QueriesPerCondition per service per run (default 80).
	QueriesPerCondition int
	// SharedWays between neighbours (default 1 — chains need more ways
	// than pairs).
	SharedWays int
	// Processor defaults to the Xeon E5-2683.
	Processor Processor
	// Seed drives all randomness.
	Seed uint64
}

// ProfileChain collects a profiling dataset for a chain of collocated
// services: each run draws every service's load from [0.4, 0.95] and its
// timeout from [0, 5] at random.
func ProfileChain(opts ChainProfileOptions) (Dataset, error) {
	if len(opts.Kernels) < 2 {
		return Dataset{}, fmt.Errorf("stac: chain profiling needs at least 2 kernels")
	}
	runs := opts.Runs
	if runs <= 0 {
		runs = 14
	}
	queries := opts.QueriesPerCondition
	if queries <= 0 {
		queries = 80
	}
	shared := opts.SharedWays
	if shared <= 0 {
		shared = 1
	}
	// Draw every condition's loads and timeouts up front, in run order —
	// the single RNG's consumption sequence must not depend on how the
	// batch is later scheduled.
	rng := stats.NewRNG(opts.Seed)
	conds := make([]Condition, runs)
	for run := range conds {
		cond := Condition{
			Processor:  opts.Processor,
			SharedWays: shared,
			Seed:       opts.Seed + uint64(run)*6373,
		}
		for _, k := range opts.Kernels {
			cond.Services = append(cond.Services, ServiceSpec{
				Kernel:  k,
				Load:    stats.Uniform{Lo: 0.4, Hi: 0.95}.Sample(rng),
				Timeout: stats.Uniform{Lo: 0, Hi: 5}.Sample(rng),
			})
		}
		cond = cond.Defaults()
		cond.QueriesPerService = queries
		conds[run] = cond
	}
	results, err := testbed.RunBatch(0, conds)
	if err != nil {
		return Dataset{}, err
	}
	ds := Dataset{Schema: profile.DefaultSchema()}
	for run, res := range results {
		for svcIdx := range res.Services {
			rows, err := profile.BuildRows(ds.Schema, res, svcIdx)
			if err != nil {
				return Dataset{}, err
			}
			for r := range rows {
				rows[r].CondID = run
			}
			ds.Rows = append(ds.Rows, rows...)
		}
	}
	return ds, nil
}

// TrainOptions configures pipeline training.
type TrainOptions struct {
	// PaperConfig selects the paper-faithful deep-forest configuration
	// (4 stride-1 grains, 4×4×100 cascade). The default is a scaled
	// configuration suited to single-core machines.
	PaperConfig bool
	// Servers is the per-service core count being modelled (default 2).
	Servers int
	// Seed drives training randomness.
	Seed uint64
	// Workers bounds training parallelism, including the predictor's
	// correction fit and FindPolicy's grid predictions (0 = GOMAXPROCS,
	// 1 = sequential). The trained model is identical at any count.
	Workers int
}

// Train fits the deep-forest effective-allocation model on a profiling
// dataset and assembles the full three-stage predictor.
func Train(ds Dataset, opts TrainOptions) (*Predictor, error) {
	spec := core.MatrixSpec(ds.Schema)
	cfg := deepforest.FastConfig(spec)
	if opts.PaperConfig {
		cfg = deepforest.DefaultConfig(spec)
	}
	cfg.Workers = opts.Workers
	servers := opts.Servers
	if servers <= 0 {
		servers = 2
	}
	model, err := core.TrainDeepForestEA(ds, cfg, stats.NewRNG(opts.Seed))
	if err != nil {
		return nil, err
	}
	return core.NewPredictor(model, ds, servers, opts.Workers)
}

// NewScenario builds a prediction scenario for one service of a profiled
// pair: calibrated service time and variability come from the dataset;
// timeouts are filled in by the caller or by FindPolicy.
func NewScenario(ds Dataset, service string, load, partnerLoad float64) (Scenario, error) {
	return policy.ScenarioTemplate(ds, service, load, partnerLoad)
}

// FindPolicy searches the paper's timeout grid (5 settings per workload)
// with the trained predictor and returns the SLO-balanced decision of
// §5.2.
func FindPolicy(p *Predictor, scenarioA, scenarioB Scenario) (Decision, error) {
	return policy.ModelDriven(p, scenarioA, scenarioB, policy.SearchOptions{})
}

// FindChainPolicy extends the model-driven search to chains of three or
// more collocated services (the cat.PlanChain layout), returning one
// timeout per service. See policy.ChainSearch.
func FindChainPolicy(p *Predictor, scenarios []Scenario) ([]float64, error) {
	return policy.ChainSearch(p, scenarios, policy.SearchOptions{})
}

// EvaluatePolicy runs a decision on the testbed and reports per-service
// speedup in 95th-percentile response time against the no-sharing
// baseline.
func EvaluatePolicy(ctx PairContext, d Decision) ([2]float64, error) {
	return policy.Speedups(ctx, d)
}

// NewSearcher builds the surrogate plan searcher: per-kernel exact
// miss-ratio curves, solo calibration anchors, and the no-sharing
// baseline prediction. Use
// EnumeratePlans + Search to rank the exhaustive plan space and Validate
// to re-measure the top candidates on the full testbed.
func NewSearcher(cfg SearchConfig) (*Searcher, error) { return surrogate.New(cfg) }

// Baseline allocation approaches from the paper's Figure 8 comparison.

// NoSharingPolicy gives each workload only its private cache.
func NoSharingPolicy() Decision { return policy.NoSharing() }

// StaticPolicy probes full-sharing vs private-only on the testbed and
// returns the better configuration.
func StaticPolicy(ctx PairContext) (Decision, error) { return policy.Static(ctx) }

// DCatPolicy implements workload-aware allocation: the shared region goes
// to the workload that speeds up most.
func DCatPolicy(ctx PairContext) (Decision, error) { return policy.DCat(ctx) }

// DynaSprintPolicy tunes timeouts under low arrival rate and reuses them
// at high rate, ignoring queueing delay.
func DynaSprintPolicy(ctx PairContext) (Decision, error) { return policy.DynaSprint(ctx) }

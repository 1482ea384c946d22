// Package stac is a from-scratch Go reproduction of "Performance Modeling
// for Short-Term Cache Allocation" (Morris, Stewart, Chen, Birke —
// ICPP '22). Short-term cache allocation grants and revokes access to
// last-level-cache ways dynamically: a query execution that exceeds a
// response-time timeout is temporarily switched to a class of service
// with more ways. This package exposes the pipeline the paper describes,
// run on a simulated testbed (collocated services on a CAT-partitioned
// Xeon) that produces ground-truth response times and counter profiles:
//
//   - Stage 1 profiling (Profile): effective-cache-allocation
//     measurement and stratified condition sampling,
//   - Stage 2 learning and Stage 3 modeling (Train): a deep forest
//     (multi-grain scanning + cascades) predicts effective allocation
//     from profiles, and a G/G/k simulator with timeout-triggered
//     speedups converts it into response-time predictions,
//   - the paper's model-driven timeout search (FindPolicy) and its
//     testbed evaluation (EvaluatePolicy), and
//   - the surrogate search over every CAT mask plan (NewSearcher).
//
// The facade re-exports the types these calls take and return via
// aliases; the underlying packages live in internal/ and are documented
// individually. The command in cmd/stac drives the rest, the paper's
// Figure 8 baselines (static, dCat, dynaSprint, simple-ML) included.
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
	"stac/internal/core"
	"stac/internal/deepforest"
	"stac/internal/policy"
	"stac/internal/profile"
	"stac/internal/stats"
	"stac/internal/surrogate"
	"stac/internal/workload"
)

// Re-exported types. Their methods and fields are documented on the
// underlying internal packages.
type (
	// Kernel is one of the eight Table 1 benchmark workloads.
	Kernel = workload.Kernel
	// Dataset is a set of profiling rows (Stage 1 output).
	Dataset = profile.Dataset
	// Scenario describes a runtime condition for prediction.
	Scenario = core.Scenario
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
)

// Workloads returns the eight benchmark kernels of the paper's Table 1.
func Workloads() []Kernel { return workload.All() }

// WorkloadByName looks up a kernel by its Table 1 identifier (jacobi,
// knn, kmeans, spkmeans, spstream, bfs, social, redis).
func WorkloadByName(name string) (Kernel, error) { return workload.ByName(name) }

// ProfileOptions configures Stage 1 profiling for one collocated pair on
// the Xeon E5-2683.
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
		QueriesPerService: opts.QueriesPerCondition,
		Seed:              opts.Seed,
		Workers:           opts.Workers,
	}
	rng := stats.NewRNG(opts.Seed)
	var pts []profile.Point
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
		pts = profile.StratifiedPoints(points, nSeeds, 4, func(p profile.Point) float64 {
			return profile.EvalEA(copts, p)
		}, rng, opts.Workers)
	}
	return profile.Collect(copts, pts)
}

// TrainOptions configures pipeline training.
type TrainOptions struct {
	// Seed drives training randomness.
	Seed uint64
	// Workers bounds training parallelism, including the predictor's
	// correction fit and FindPolicy's grid predictions (0 = GOMAXPROCS,
	// 1 = sequential). The trained model is identical at any count.
	Workers int
}

// Train fits the deep-forest effective-allocation model on a profiling
// dataset, in the scaled configuration suited to small machines, and
// assembles the full three-stage predictor for services on two cores
// each (the paper's provision).
func Train(ds Dataset, opts TrainOptions) (*Predictor, error) {
	cfg := deepforest.FastConfig(core.MatrixSpec(ds.Schema))
	cfg.Workers = opts.Workers
	model, err := core.TrainDeepForestEA(ds, cfg, stats.NewRNG(opts.Seed))
	if err != nil {
		return nil, err
	}
	return core.NewPredictor(model, ds, opts.Workers)
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

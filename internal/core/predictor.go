// Package core implements the paper's primary contribution: the
// model-driven pipeline that predicts response time for collocated online
// services under short-term cache allocation policies, and searches for
// policies with low response time.
//
// The pipeline is the three-stage design of §3: (1) profiles collected by
// internal/profile from the testbed, (2) a learned model of effective
// cache allocation (deep forest by default; any EAModel works), and (3) a
// first-principles queueing simulation that converts effective allocation
// into response-time distributions. Prediction for an unseen runtime
// condition never uses profiles observed under that condition: counter
// matrices are borrowed from the profiling library's nearest conditions,
// and the queueing simulator feeds its instantaneous queueing delay back
// into the model's dynamic features until the two stages agree (§3.3).
package core

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"stac/internal/counters"
	"stac/internal/deepforest"
	"stac/internal/linreg"
	"stac/internal/par"
	"stac/internal/profile"
	"stac/internal/queueing"
	"stac/internal/stats"
	"stac/internal/testbed"
)

// EAModel predicts effective cache allocation from a profile feature
// vector. *deepforest.Model satisfies it; so does a plain random forest
// (the "simple ML" comparison of Figure 8e).
type EAModel interface {
	Predict(features []float64) float64
}

// Scenario describes one runtime condition to predict: the static
// features of Equation 2 plus the calibrated quantities the modeler knows
// from profiling.
type Scenario struct {
	// Static holds the service's own and its partner's load and
	// timeout, the cache layout, and the counter sampling period
	// relative to service time.
	profile.Static
	// Service is the workload's kernel name (selects library profiles).
	Service string
	// ExpService is the calibrated baseline service time.
	ExpService float64
	// ServiceCV is the service-time coefficient of variation.
	ServiceCV float64
}

// Validate reports scenario errors.
func (s Scenario) Validate() error {
	if s.Load <= 0 || s.Load >= 1 {
		return fmt.Errorf("core: load %v outside (0,1)", s.Load)
	}
	if s.Timeout < 0 {
		return fmt.Errorf("core: negative timeout")
	}
	if s.ExpService <= 0 {
		return fmt.Errorf("core: non-positive expected service time")
	}
	if s.BoostRatio <= 0 {
		return fmt.Errorf("core: non-positive boost ratio")
	}
	return nil
}

// ScenarioFromRow reconstructs the scenario a profile row was measured
// under — used when evaluating prediction accuracy on held-out rows.
func ScenarioFromRow(r profile.Row) Scenario {
	return Scenario{
		Static:     profile.StaticOf(r.Features),
		Service:    r.Service,
		ExpService: r.ExpService,
		ServiceCV:  r.STCV,
	}
}

// Prediction is the pipeline's output for one scenario.
type Prediction struct {
	// EA is the predicted effective cache allocation.
	EA float64
	// MeanResponse and P95Response are the predicted response times.
	MeanResponse float64
	P95Response  float64
	// QueueDelay is the predicted mean queueing delay (the dynamic
	// feedback signal).
	QueueDelay float64
	// BoostedFrac is the predicted fraction of boosted queries.
	BoostedFrac float64
}

// Predictor is the trained model-driven pipeline. Once constructed it
// is immutable — concurrent Predict*/Evaluate* calls are safe — except
// for ClearCorrections, which must not run concurrently with
// predictions.
type Predictor struct {
	model   EAModel
	builder *InputBuilder
	// workers bounds the predictor's own fan-outs: the correction fit
	// and batch callers such as policy.ModelDriven (see Workers).
	workers int

	// correction holds per-service residual corrections fitted on the
	// training library: log(actual) ≈ a + b·log(predicted) + c·load. The
	// G/G/k abstraction misses state-dependent service rates (two
	// executions of one service contend in their own private ways), a
	// bias that grows systematically with load; stacking a correction
	// fitted on *training* conditions removes it without ever touching
	// test observations.
	correction map[string]*linreg.Model
}

// Stage 3 of the full pipeline runs feedbackIterations rounds of
// feedback between the EA model and the queueing simulator (2 matches
// the paper's converged behaviour), each simulation simQueries long.
const (
	feedbackIterations = 2
	simQueries         = 8000
)

// NewPredictor assembles a pipeline from a trained EA model and the
// profiling library it was trained on. workers bounds the parallelism
// of the residual-correction fit and of the predictor's batch callers
// (0 = GOMAXPROCS, 1 = sequential); the predictor is identical at any
// count.
func NewPredictor(model EAModel, library profile.Dataset, workers int) (*Predictor, error) {
	if model == nil {
		return nil, fmt.Errorf("core: nil EA model")
	}
	if library.Len() == 0 {
		return nil, fmt.Errorf("core: empty profile library")
	}
	builder, err := NewInputBuilder(library)
	if err != nil {
		return nil, err
	}
	p := &Predictor{
		model:      model,
		builder:    builder,
		workers:    workers,
		correction: map[string]*linreg.Model{},
	}
	p.fitCorrections(library)
	return p, nil
}

// correctionFeatures builds the residual-regression input for one
// (prediction, scenario) pair: log response normalised by service time,
// plus the condition's load.
func correctionFeatures(s Scenario, meanResponse float64) []float64 {
	return []float64{math.Log(meanResponse / s.ExpService), s.Load}
}

// fitCorrections fits the per-service residual correction on the
// training library's rows, aggregated per condition first — window-level
// response means at high load are too noisy to regress against. A
// correction is only installed when a two-fold cross-validation over
// training conditions shows it actually reduces error: on pairs whose
// raw pipeline is already unbiased, stacking would only add variance.
//
// The per-condition predictions are independent and fan out over the
// predictor's workers into index-addressed slots; the fits read them in
// library order.
func (p *Predictor) fitCorrections(library profile.Dataset) {
	library = library.AggregateByCondition()
	preds := make([]Prediction, len(library.Rows))
	// A skipped or failed prediction leaves its slot zero, which skips
	// the condition below.
	_ = par.ForEach(p.workers, len(library.Rows), func(i int) error {
		r := library.Rows[i]
		if r.RespMean <= 0 || r.ExpService <= 0 {
			return nil
		}
		if pred, err := p.predictRaw(ScenarioFromRow(r)); err == nil {
			preds[i] = pred
		}
		return nil
	})
	perServiceX := map[string][][]float64{}
	perServiceY := map[string][]float64{}
	perServiceResp := map[string][]float64{}
	perServiceExp := map[string][]float64{}
	for i, r := range library.Rows {
		pred := preds[i]
		if pred.MeanResponse <= 0 {
			continue
		}
		s := ScenarioFromRow(r)
		perServiceX[r.Service] = append(perServiceX[r.Service], correctionFeatures(s, pred.MeanResponse))
		perServiceY[r.Service] = append(perServiceY[r.Service], math.Log(r.RespMean/r.ExpService))
		perServiceResp[r.Service] = append(perServiceResp[r.Service], r.RespMean)
		perServiceExp[r.Service] = append(perServiceExp[r.Service], r.ExpService)
	}
	for svc, xs := range perServiceX {
		if len(xs) < 8 {
			continue
		}
		ys := perServiceY[svc]
		resp := perServiceResp[svc]
		exp := perServiceExp[svc]

		// Two-fold CV: even conditions predict odd ones and vice versa.
		var rawErr, corrErr []float64
		for fold := 0; fold < 2; fold++ {
			var fx [][]float64
			var fy []float64
			for i := range xs {
				if i%2 == fold {
					fx = append(fx, xs[i])
					fy = append(fy, ys[i])
				}
			}
			if len(fx) < 4 {
				continue
			}
			m, err := linreg.Fit(fx, fy, 1e-6)
			if err != nil || m.Weights[0] < 0.3 || m.Weights[0] > 2.5 {
				continue
			}
			for i := range xs {
				if i%2 == fold {
					continue
				}
				rawPred := math.Exp(xs[i][0]) * exp[i]
				corrected := math.Exp(m.Predict(xs[i])) * exp[i]
				rawErr = append(rawErr, stats.APE(resp[i], rawPred))
				corrErr = append(corrErr, stats.APE(resp[i], corrected))
			}
		}
		// Require a decisive CV win: with a dozen conditions per fold the
		// CV medians are noisy, and a marginal improvement in-sample is
		// usually variance, not signal.
		if len(corrErr) == 0 || stats.Median(corrErr) >= 0.9*stats.Median(rawErr) {
			continue
		}

		m, err := linreg.Fit(xs, ys, 1e-6)
		if err != nil {
			continue
		}
		// Keep the correction gentle: a runaway slope on log(pred) means
		// the raw model carries no signal, and stacking cannot help.
		if m.Weights[0] < 0.3 || m.Weights[0] > 2.5 {
			continue
		}
		p.correction[svc] = m
	}
}

// ClearCorrections removes the fitted residual corrections, leaving the
// pure EA + queueing pipeline. Exposed for the ablation benchmarks that
// quantify what stacking contributes.
func (p *Predictor) ClearCorrections() {
	p.correction = map[string]*linreg.Model{}
}

// Workers reports the worker bound NewPredictor was given, for callers
// that fan a batch of predictions out over par.
func (p *Predictor) Workers() int { return p.workers }

// applyCorrection maps a raw prediction through the service's fitted
// residual correction, scaling the tail estimate proportionally.
func (p *Predictor) applyCorrection(s Scenario, pred Prediction) Prediction {
	m, ok := p.correction[s.Service]
	if !ok || pred.MeanResponse <= 0 || s.ExpService <= 0 {
		return pred
	}
	corrected := math.Exp(m.Predict(correctionFeatures(s, pred.MeanResponse))) * s.ExpService
	scale := corrected / pred.MeanResponse
	pred.P95Response *= scale
	pred.QueueDelay *= scale
	pred.MeanResponse = corrected
	return pred
}

// MatrixSpec exposes the profile matrix location for model constructors.
// Every schema puts the matrix at profile.MatrixOffset; a schema orders
// only the matrix's rows.
func MatrixSpec(profile.Schema) deepforest.MatrixSpec {
	return deepforest.MatrixSpec{Offset: profile.MatrixOffset, Rows: counters.NumCounters, Cols: profile.QueriesPerRow}
}

// TrainDeepForestEA trains the paper's deep-forest effective-allocation
// model on a profiling dataset. A zero-value cfg selects the scaled
// FastConfig appropriate for single-core machines.
func TrainDeepForestEA(ds profile.Dataset, cfg deepforest.Config, rng *stats.RNG) (*deepforest.Model, error) {
	if len(cfg.Windows) == 0 {
		cfg = deepforest.FastConfig(MatrixSpec(ds.Schema))
	}
	return deepforest.Train(ds.Features(), ds.Targets(), cfg, rng)
}

// predictEA predicts effective cache allocation for a scenario whose
// neighbourhood nb is already found, given a dynamic-feature estimate.
func (p *Predictor) predictEA(s Scenario, nb neighbourhood, dynamic [profile.NumDynamic]float64) (float64, error) {
	input, err := p.builder.build(s, nb, dynamic)
	if err != nil {
		return 0, err
	}
	return ClampEA(p.model.Predict(input)), nil
}

// ClampEA clamps a predicted effective allocation to the physically
// meaningful range [0.02, 1.5]. Every path that serves a model's EA
// applies it: the full predictor here and the serving engine's batched
// /predict path.
func ClampEA(ea float64) float64 {
	return min(max(ea, 0.02), 1.5)
}

// PredictResponse runs the full pipeline: borrow profiles, predict
// effective allocation, simulate queueing, feed the simulated queueing
// delay back into the dynamic features, and repeat (§3.3).
//
// The model is queried at two timeouts. EA at the policy's timeout gives
// the aggregate speed factor under the policy (Equation 3's measured
// semantics: EA·R = baseline service time / policy service time). EA at
// the never-boost endpoint isolates the contended *default-phase* rate —
// collocated neighbours slow a workload even when it is not boosted.
// Stage 3 then simulates with the contended base service time and a
// boost-phase multiplier, which reproduces both the aggregate speedup
// and the wait/speed correlation that shapes tail latency.
func (p *Predictor) PredictResponse(s Scenario) (Prediction, error) {
	pred, err := p.predictRaw(s)
	if err != nil {
		return Prediction{}, err
	}
	return p.applyCorrection(s, pred), nil
}

// predictRaw is PredictResponse before the residual correction.
func (p *Predictor) predictRaw(s Scenario) (Prediction, error) {
	if err := s.Validate(); err != nil {
		return Prediction{}, err
	}
	// Prefer the library's base (unboosted) service-time variability over
	// whatever the scenario carries — see InputBuilder.BaseServiceCV.
	if cv := p.builder.BaseServiceCV(s.Service); cv > 0 {
		s.ServiceCV = cv
	}
	// Every iteration reconstructs inputs for the same two scenarios, so
	// their library neighbourhoods are found once, up front.
	nb := p.builder.neighbourhood(s)
	dynamic := p.builder.dynamics(nb)
	sim := simulators.Get().(*queueing.Simulator)
	defer simulators.Put(sim)

	never := s
	never.Timeout = profile.TimeoutCap
	nbNever := p.builder.neighbourhood(never)
	neverDynamic := dynamic
	neverDynamic[profile.DynBoostedFrac] = 0 // never-boost windows have zero boosted queries

	var pred Prediction
	for iter := 0; iter <= feedbackIterations; iter++ {
		eaPolicy, err := p.predictEA(s, nb, dynamic)
		if err != nil {
			return Prediction{}, err
		}
		eaNever, err := p.predictEA(never, nbNever, neverDynamic)
		if err != nil {
			return Prediction{}, err
		}
		var res queueing.Result
		pred, res, err = predictWithEA(sim, s, eaPolicy, eaNever, simQueries)
		if err != nil {
			return Prediction{}, err
		}
		// Dynamic-condition feedback for the next iteration.
		dynamic = [profile.NumDynamic]float64{
			profile.DynQueueDelayMean: res.MeanQueueDelay() / s.ExpService,
			profile.DynQueueDelayMax:  stats.Percentile(res.QueueDelays, 95) / s.ExpService,
			profile.DynBoostedFrac:    res.BoostedFrac,
		}
	}
	return pred, nil
}

// simulators pools Stage-3 simulators. A Predictor is safe for
// concurrent use, so each prediction takes a simulator of its own; handing
// it back lets the next prediction reuse its buffers and its kept
// standard variates, since every Stage-3 simulation uses seed 1.
var simulators = sync.Pool{New: func() any { return queueing.NewSimulator() }}

// PredictWithEA runs Stage 3 with externally supplied effective
// allocations — eaPolicy at the scenario's timeout and eaNever at the
// never-boost endpoint — bypassing the learned model. Used by the
// pipeline itself, and by tests/ablations that isolate the queueing
// stage's fidelity with oracle EA values.
//
// Equation 3's measured semantics pin two aggregates: with the policy,
// mean service time is ExpService/(eaPolicy·R); with boosting disabled it
// is ExpService/(eaNever·R). The simulation's base service distribution
// satisfies the second directly. The boost-phase multiplier is then
// *calibrated by bisection* so the simulated aggregate matches the first
// — a fixed multiplier would only match when every query boosts, biasing
// mid-timeout policies.
func PredictWithEA(s Scenario, eaPolicy, eaNever float64, simQueries int) (Prediction, error) {
	sim := simulators.Get().(*queueing.Simulator)
	defer simulators.Put(sim)
	pred, _, err := predictWithEA(sim, s, eaPolicy, eaNever, simQueries)
	return pred, err
}

// predictWithEA is PredictWithEA on a caller's simulator; the Result
// aliases the simulator's buffers until its next run.
func predictWithEA(sim *queueing.Simulator, s Scenario, eaPolicy, eaNever float64, simQueries int) (Prediction, queueing.Result, error) {
	// Contended default-phase speed factor (1 = matches the solo
	// calibration; below 1 = neighbours slow us down).
	defaultRate := clampRate(eaNever*s.BoostRatio, 0.2, 1.5)
	cfg := stage3Config(s, s.ExpService/defaultRate, 1, simQueries)

	// Target aggregate mean service time under the policy.
	target := s.ExpService / clampRate(eaPolicy*s.BoostRatio, 0.1, 3)

	simulate := func(m float64) (queueing.Result, float64, error) {
		cfg.BoostRate = m
		res, err := sim.Run(cfg)
		if err != nil {
			return queueing.Result{}, 0, err
		}
		// Aggregate simulated service time = response − waiting.
		agg := stats.Mean(res.ResponseTimes) - stats.Mean(res.QueueDelays)
		return res, agg, nil
	}

	m := clampRate(eaPolicy/eaNever, 0.25, 4)
	res, agg, err := simulate(m)
	if err != nil {
		return Prediction{}, queueing.Result{}, err
	}
	if !math.IsInf(cfg.Timeout, 1) && res.BoostedFrac > 0.02 {
		// Bisection on the boost multiplier: aggregate service time is
		// monotone decreasing in m.
		lo, hi := 0.25, 6.0
		for iter := 0; iter < 6 && math.Abs(agg-target) > 0.01*target; iter++ {
			if agg > target {
				lo = m
			} else {
				hi = m
			}
			m = (lo + hi) / 2
			res, agg, err = simulate(m)
			if err != nil {
				return Prediction{}, queueing.Result{}, err
			}
		}
	}

	return predictionOf(eaPolicy, res), res, nil
}

// stage3Config is the G/G/k simulation of a scenario's service on
// testbed.DefaultCoresPerService servers: Poisson arrivals at the
// scenario's load, lognormal service times of mean serviceMean and the
// scenario's variability (0.3 when unknown), and its timeout in seconds.
// Every Stage-3 simulation uses seed 1 and warms up on a tenth of its
// queries.
func stage3Config(s Scenario, serviceMean, boostRate float64, queries int) queueing.Config {
	timeout := s.Timeout * s.ExpService
	if s.Timeout >= profile.TimeoutCap {
		timeout = math.Inf(1)
	}
	cv := s.ServiceCV
	if cv <= 0 {
		cv = 0.3
	}
	return queueing.Config{
		Servers:   testbed.DefaultCoresPerService,
		Arrival:   stats.Exponential{Rate: s.Load * testbed.DefaultCoresPerService / s.ExpService},
		Service:   stats.LognormalFromMeanCV(serviceMean, cv),
		Timeout:   timeout,
		BoostRate: boostRate,
		Queries:   queries,
		Warmup:    queries / 10,
		Seed:      1,
	}
}

// predictionOf reads a Stage-3 result as the prediction at effective
// allocation ea.
func predictionOf(ea float64, res queueing.Result) Prediction {
	return Prediction{
		EA:           ea,
		MeanResponse: res.MeanResponse(),
		P95Response:  res.P95Response(),
		QueueDelay:   res.MeanQueueDelay(),
		BoostedFrac:  res.BoostedFrac,
	}
}

func clampRate(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// InputBuilder reconstructs model inputs for unseen runtime conditions
// from a profiling library: the scenario's static features, dynamic
// features estimated from the nearest profiled conditions, and the
// average counter matrix of those neighbours. Every modeling approach in
// the evaluation — ours and the Figure 6 competitors alike — predicts
// through reconstructed inputs, mirroring the paper's protocol that no
// model may use a profile observed under the test condition.
type InputBuilder struct {
	library    profile.Dataset
	neighbours int
}

// NewInputBuilder wraps a profiling library for input reconstruction.
func NewInputBuilder(library profile.Dataset) (*InputBuilder, error) {
	if library.Len() == 0 {
		return nil, fmt.Errorf("core: empty profile library")
	}
	return &InputBuilder{library: library, neighbours: 4}, nil
}

// neighbourhood is a scenario's nearest library rows with their
// inverse-distance weights, normalised to sum to 1. Both depend only on
// the scenario's service and on its own and its partner's load and
// timeout.
type neighbourhood struct {
	rows    []int
	weights []float64
}

// neighbourhood finds the scenario's nearest library rows and weighs
// them.
func (b *InputBuilder) neighbourhood(s Scenario) neighbourhood {
	nn := b.nearest(s, b.neighbours)
	return neighbourhood{rows: nn, weights: b.neighbourWeights(s, nn)}
}

// neighbourWeights returns inverse-distance weights for the scenario's
// nearest rows (normalised to sum to 1).
func (b *InputBuilder) neighbourWeights(s Scenario, nn []int) []float64 {
	static := s.Vector()
	w := make([]float64, len(nn))
	total := 0.0
	for i, idx := range nn {
		w[i] = 1 / (0.02 + sweptDistance(b.library.Rows[idx].Features, &static))
		total += w[i]
	}
	for i := range w {
		w[i] /= total
	}
	return w
}

// Build reconstructs the full feature vector for a scenario using the
// neighbour-estimated dynamic features.
func (b *InputBuilder) Build(s Scenario) ([]float64, error) {
	nb := b.neighbourhood(s)
	return b.build(s, nb, b.dynamics(nb))
}

// dynamics estimates a scenario's dynamic features by distance-weighted
// averaging over its neighbourhood's profiled conditions.
func (b *InputBuilder) dynamics(nb neighbourhood) [profile.NumDynamic]float64 {
	var dyn [profile.NumDynamic]float64
	for k, i := range nb.rows {
		for j := range dyn {
			dyn[j] += nb.weights[k] * b.library.Rows[i].Features[profile.NumStatic+j]
		}
	}
	return dyn
}

// BaseServiceCV estimates a service's *base* service-time variability
// from profiling windows where boosting rarely triggered (high timeout
// and low boosted fraction). Windows measured under aggressive policies
// mix boosted and unboosted executions, inflating the apparent CV; using
// them would double-count variance the Stage 3 simulator already models
// through its boost mechanics.
func (b *InputBuilder) BaseServiceCV(service string) float64 {
	const boostedIdx = profile.NumStatic + profile.DynBoostedFrac
	var sum float64
	n := 0
	for pass := 0; pass < 2 && n == 0; pass++ {
		for _, r := range b.library.Rows {
			if r.Service != service || r.STCV <= 0 {
				continue
			}
			if pass == 0 && r.Features[boostedIdx] > 0.1 {
				continue
			}
			sum += r.STCV
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// build assembles static ++ dynamic ++ the matrix borrowed from the
// scenario's neighbourhood nb.
func (b *InputBuilder) build(s Scenario, nb neighbourhood, dynamic [profile.NumDynamic]float64) ([]float64, error) {
	if len(nb.rows) == 0 {
		return nil, fmt.Errorf("core: no library rows to borrow profiles from")
	}
	static := s.Vector()
	input := make([]float64, profile.NumFeatures)
	copy(input, static[:])
	copy(input[profile.NumStatic:], dynamic[:])
	// The neighbours' weighted matrices accumulate in the input itself.
	matrix := input[profile.MatrixOffset:]
	for k, i := range nb.rows {
		feats := b.library.Rows[i].Features[profile.MatrixOffset:profile.NumFeatures]
		for j := range matrix {
			matrix[j] += nb.weights[k] * feats[j]
		}
	}
	return input, nil
}

// nearest returns the indices of the k library rows closest to the
// scenario in static-condition space, preferring rows of the same service.
func (b *InputBuilder) nearest(s Scenario, k int) []int {
	static := s.Vector()
	type cand struct {
		idx  int
		dist float64
	}
	cands := make([]cand, 0, len(b.library.Rows))
	for pass := 0; pass < 2 && len(cands) == 0; pass++ {
		for i, r := range b.library.Rows {
			if pass == 0 && r.Service != s.Service {
				continue
			}
			cands = append(cands, cand{i, sweptDistance(r.Features, &static)})
		}
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].dist < cands[b].dist })
	if k > len(cands) {
		k = len(cands)
	}
	out := make([]int, k)
	for i := range out {
		out[i] = cands[i].idx
	}
	return out
}

// sweptScales normalise the dimensions the profiler sweeps — load,
// timeout, partner load and partner timeout, the first four static
// features — for neighbour distances.
var sweptScales = [...]float64{
	profile.FeatLoad:           0.7,
	profile.FeatTimeout:        profile.TimeoutCap,
	profile.FeatPartnerLoad:    0.7,
	profile.FeatPartnerTimeout: profile.TimeoutCap,
}

// sweptDistance is the squared normalised distance between a library
// row's features and a scenario's static features over the swept
// dimensions.
func sweptDistance(features []float64, static *[profile.NumStatic]float64) float64 {
	d := 0.0
	for j, scale := range sweptScales {
		dd := (features[j] - static[j]) / scale
		d += dd * dd
	}
	return d
}

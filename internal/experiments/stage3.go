package experiments

import (
	"math"
	"strconv"

	"stac/internal/core"
	"stac/internal/gbm"
	"stac/internal/par"
	"stac/internal/profile"
	"stac/internal/stats"
)

func init() {
	register("stage3", Stage3Ablation)
}

// Stage3Ablation decomposes the pipeline's error into its stages on one
// collocation: the naive queueing model (EA assumed 1), the pure learned
// pipeline without residual stacking, the full pipeline, and an oracle
// that feeds the *measured* effective allocation into Stage 3 — the
// lower bound set by the queueing abstraction itself.
func Stage3Ablation(opts Options) (*Report, error) {
	opts = opts.defaults()
	nPoints, queries := datasetScale(opts)
	ds, err := collectPair(pairSpec{"redis", "bfs"}, nPoints, queries, 0, opts.Seed+13000, opts.Workers)
	if err != nil {
		return nil, err
	}
	train, test := ds.SplitByCondition(0.4, opts.Seed+13001)
	test = test.AggregateByCondition()

	p, _, _, err := trainPipeline(train, opts, opts.Seed+13002)
	if err != nil {
		return nil, err
	}

	// The full evaluation must finish before ClearCorrections strips the
	// stacking stage — the predictor is immutable only between mutations.
	full, err := core.EvaluatePredictor(p, test, 2, opts.Workers)
	if err != nil {
		return nil, err
	}

	p.ClearCorrections()
	noCorr, err := core.EvaluatePredictor(p, test, 2, opts.Workers)
	if err != nil {
		return nil, err
	}

	queueOnly, err := core.EvaluateQueueOnly(test, 2, opts.Workers)
	if err != nil {
		return nil, err
	}

	// Alternative EA learners behind the same queueing stage.
	rf, err := core.TrainForestEA(train, 40, stats.NewRNG(opts.Seed+13003))
	if err != nil {
		return nil, err
	}
	rfPred, err := core.NewPredictor(rf, train, 2, opts.Workers)
	if err != nil {
		return nil, err
	}
	rfErrs, err := core.EvaluatePredictor(rfPred, test, 2, opts.Workers)
	if err != nil {
		return nil, err
	}
	gb, err := core.TrainGBMEA(train, gbm.Config{}, stats.NewRNG(opts.Seed+13004))
	if err != nil {
		return nil, err
	}
	gbPred, err := core.NewPredictor(gb, train, 2, opts.Workers)
	if err != nil {
		return nil, err
	}
	gbErrs, err := core.EvaluatePredictor(gbPred, test, 2, opts.Workers)
	if err != nil {
		return nil, err
	}

	// Oracle: measured EA at the row's condition; EA at the never-boost
	// endpoint approximated by the nearest high-timeout condition of the
	// same service.
	oracle := make([]float64, test.Len())
	if err := par.ForEach(opts.Workers, test.Len(), func(i int) error {
		r := test.Rows[i]
		s := core.ScenarioFromRow(r, 2)
		pred, err := core.PredictWithEA(s, r.EA, nearestNeverEA(test, r), 8000)
		if err != nil {
			return err
		}
		oracle[i] = stats.APE(r.RespMean, pred.MeanResponse)
		return nil
	}); err != nil {
		return nil, err
	}

	rep := &Report{
		ID:      "stage3",
		Title:   "Pipeline stage contributions (redis+bfs, median APE)",
		Columns: []string{"variant", "median APE", "n"},
	}
	add := func(name string, errs []float64) {
		rep.Rows = append(rep.Rows, []string{name, pct(stats.Median(errs)), strconv.Itoa(len(errs))})
	}
	add("queueing only (EA=1)", queueOnly)
	add("random-forest EA + queueing", rfErrs)
	add("gradient-boosted EA + queueing", gbErrs)
	add("deep-forest EA + queueing", noCorr)
	add("deep-forest EA + queueing + stacking", full)
	add("oracle EA + queueing (lower bound)", oracle)
	rep.Notes = append(rep.Notes,
		"the gap between 'learned' and 'oracle' is EA-model error; oracle vs zero is the queueing abstraction's floor")
	return rep, nil
}

// nearestNeverEA finds the measured EA of the same service's closest-load
// never-boost condition.
func nearestNeverEA(ds profile.Dataset, row profile.Row) float64 {
	best := row.EA
	bestD := math.Inf(1)
	for _, r := range ds.Rows {
		if r.Service != row.Service || r.Features[profile.FeatTimeout] < profile.TimeoutCap-1 {
			continue
		}
		d := math.Abs(r.Features[profile.FeatLoad] - row.Features[profile.FeatLoad])
		if d < bestD {
			bestD = d
			best = r.EA
		}
	}
	return best
}

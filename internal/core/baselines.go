package core

import (
	"fmt"

	"stac/internal/counters"
	"stac/internal/forest"
	"stac/internal/gbm"
	"stac/internal/linreg"
	"stac/internal/neural"
	"stac/internal/par"
	"stac/internal/profile"
	"stac/internal/queueing"
	"stac/internal/stats"
)

// ResponseModel predicts a row's mean response time directly from its
// features — the competing modeling approaches of Figure 6, which skip
// the effective-allocation intermediate and the queueing simulation.
type ResponseModel interface {
	Name() string
	Predict(features []float64) float64
}

type linearModel struct{ m *linreg.Model }

func (l linearModel) Name() string                       { return "linear regression" }
func (l linearModel) Predict(features []float64) float64 { return l.m.Predict(features) }

// TrainLinearResponse fits the Figure 6 linear-regression baseline:
// features → mean response time.
func TrainLinearResponse(ds profile.Dataset) (ResponseModel, error) {
	m, err := linreg.Fit(ds.Features(), ds.MeanResponses(), 1e-6)
	if err != nil {
		return nil, err
	}
	return linearModel{m}, nil
}

type treeModel struct{ t *forest.Tree }

func (t treeModel) Name() string                       { return "decision tree" }
func (t treeModel) Predict(features []float64) float64 { return t.t.Predict(features) }

// TrainTreeResponse fits the single-decision-tree baseline.
func TrainTreeResponse(ds profile.Dataset, rng *stats.RNG) (ResponseModel, error) {
	x := ds.Features()
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	tr, err := forest.BuildTree(x, ds.MeanResponses(), idx,
		forest.TreeConfig{MaxFeatures: len(x[0]), MinLeaf: 2}, rng)
	if err != nil {
		return nil, err
	}
	return treeModel{tr}, nil
}

// TrainForestEA fits a plain random forest on *effective allocation* —
// the simple-ML variant of the full pipeline used by Figure 8e (same
// queueing stage, shallower learner).
func TrainForestEA(ds profile.Dataset, trees int, rng *stats.RNG) (*forest.Forest, error) {
	cfg := forest.RandomForest(trees)
	cfg.Tree.ThresholdSamples = 8
	cfg.Tree.MaxDepth = 14
	return forest.Train(ds.Features(), ds.Targets(), cfg, rng)
}

// TrainGBMEA fits gradient-boosted trees on effective allocation — a
// further EA-model alternative exercised by the stage3 ablation.
func TrainGBMEA(ds profile.Dataset, cfg gbm.Config, rng *stats.RNG) (*gbm.Model, error) {
	if cfg.Trees == 0 {
		cfg = gbm.DefaultConfig()
	}
	return gbm.Train(ds.Features(), ds.Targets(), cfg, rng)
}

type cnnModel struct{ n *neural.Network }

func (c cnnModel) Name() string                       { return "CNN" }
func (c cnnModel) Predict(features []float64) float64 { return c.n.Predict(features) }

// TrainCNNResponse fits the CNN baseline: deep and representational
// learning mapped *directly* from runtime conditions to response time,
// with no queueing stage (Figure 6's "CNN").
func TrainCNNResponse(ds profile.Dataset, cfg neural.Config, rng *stats.RNG) (ResponseModel, error) {
	if cfg.Filters == 0 {
		cfg = neural.DefaultConfig(neural.MatrixSpec{
			Offset: profile.MatrixOffset, Rows: counters.NumCounters, Cols: profile.QueriesPerRow,
		})
	}
	n, err := neural.Train(ds.Features(), ds.MeanResponses(), cfg, rng)
	if err != nil {
		return nil, err
	}
	return cnnModel{n}, nil
}

// QueueOnlyPredict is the "Queuing Model" baseline of Figure 6: the
// Stage 3 simulator alone, assuming effective allocation is perfect
// (EA = 1, so boosting yields the full gross allocation ratio). It
// captures queueing dynamics but misses contention.
func QueueOnlyPredict(s Scenario) (Prediction, error) {
	if err := s.Validate(); err != nil {
		return Prediction{}, err
	}
	sim := simulators.Get().(*queueing.Simulator)
	defer simulators.Put(sim)
	res, err := sim.Run(stage3Config(s, s.ExpService, s.BoostRatio, 4000))
	if err != nil {
		return Prediction{}, err
	}
	return predictionOf(1, res), nil
}

// EvaluateResponseModel computes per-row absolute percentage errors of a
// direct response-time model on a test set. Inputs are reconstructed
// from the model's own training library — no approach may consume a
// profile observed under the test condition (§5: "our modeling approach
// could not use an observed profile from the runtime condition...
// We also compare our approach to competing modeling approaches using
// the same methodology"). Rows are distributed over up to workers
// goroutines (0 = GOMAXPROCS); each row's error lands in its own slot,
// so the result is identical at any worker count.
func EvaluateResponseModel(m ResponseModel, library, test profile.Dataset, workers int) ([]float64, error) {
	builder, err := NewInputBuilder(library)
	if err != nil {
		return nil, err
	}
	errs := make([]float64, test.Len())
	err = par.ForEach(workers, test.Len(), func(i int) error {
		r := test.Rows[i]
		input, err := builder.Build(ScenarioFromRow(r))
		if err != nil {
			return fmt.Errorf("core: row %d: %w", i, err)
		}
		errs[i] = stats.APE(r.RespMean, m.Predict(input))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return errs, nil
}

// EvaluatePredictor computes per-row absolute percentage errors of the
// full pipeline on held-out rows, reconstructing each row's scenario and
// predicting without its observed profile. Rows are distributed over up
// to workers goroutines (0 = GOMAXPROCS). A constructed Predictor is
// immutable, so concurrent PredictResponse calls are safe; per-row errors
// land in index-addressed slots and the result is identical at any worker
// count.
func EvaluatePredictor(p *Predictor, test profile.Dataset, workers int) ([]float64, error) {
	errs := make([]float64, test.Len())
	err := par.ForEach(workers, test.Len(), func(i int) error {
		pred, err := p.PredictResponse(ScenarioFromRow(test.Rows[i]))
		if err != nil {
			return fmt.Errorf("core: row %d: %w", i, err)
		}
		errs[i] = stats.APE(test.Rows[i].RespMean, pred.MeanResponse)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return errs, nil
}

// EvaluateQueueOnly computes per-row errors for the queueing-only
// baseline over up to workers goroutines (0 = GOMAXPROCS); results are
// identical at any worker count.
func EvaluateQueueOnly(test profile.Dataset, workers int) ([]float64, error) {
	errs := make([]float64, test.Len())
	err := par.ForEach(workers, test.Len(), func(i int) error {
		pred, err := QueueOnlyPredict(ScenarioFromRow(test.Rows[i]))
		if err != nil {
			return fmt.Errorf("core: row %d: %w", i, err)
		}
		errs[i] = stats.APE(test.Rows[i].RespMean, pred.MeanResponse)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return errs, nil
}

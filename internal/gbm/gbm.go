// Package gbm implements gradient-boosted regression trees: an additional
// learner for effective cache allocation beyond the paper's deep forest
// and the simple-ML random forest. Boosting fits each shallow tree to the
// previous ensemble's residuals; with squared-error loss the gradient is
// the residual itself, so training is a sequence of regression-tree fits
// scaled by a learning rate.
package gbm

import (
	"fmt"

	"stac/internal/forest"
	"stac/internal/stats"
)

// Config controls boosting.
type Config struct {
	// Trees is the boosting-round count.
	Trees int
	// Depth bounds each tree (shallow trees, typically 3-5).
	Depth int
	// LearningRate shrinks each tree's contribution (0.05-0.3).
	LearningRate float64
	// Subsample is the fraction of rows drawn (without replacement) per
	// round — stochastic gradient boosting. 1.0 disables subsampling.
	Subsample float64
	// MaxFeatures caps candidate features per split (0 = √f).
	MaxFeatures int
	// ThresholdSamples configures the fast splitter (0 = exact CART).
	ThresholdSamples int
}

// DefaultConfig returns a configuration that works well on profile data.
func DefaultConfig() Config {
	return Config{
		Trees:            150,
		Depth:            4,
		LearningRate:     0.1,
		Subsample:        0.8,
		ThresholdSamples: 8,
	}
}

func (c Config) validate() error {
	if c.Trees <= 0 {
		return fmt.Errorf("gbm: Trees must be positive")
	}
	if c.Depth <= 0 {
		return fmt.Errorf("gbm: Depth must be positive")
	}
	if c.LearningRate <= 0 || c.LearningRate > 1 {
		return fmt.Errorf("gbm: LearningRate must be in (0,1]")
	}
	if c.Subsample <= 0 || c.Subsample > 1 {
		return fmt.Errorf("gbm: Subsample must be in (0,1]")
	}
	return nil
}

// Model is a trained boosted ensemble.
type Model struct {
	base  float64
	rate  float64
	trees []*forest.Tree
}

// Train fits the ensemble.
func Train(x [][]float64, y []float64, cfg Config, rng *stats.RNG) (*Model, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, fmt.Errorf("gbm: bad training shapes: %d rows, %d targets", len(x), len(y))
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := len(x)

	base := 0.0
	for _, v := range y {
		base += v
	}
	base /= float64(n)

	m := &Model{base: base, rate: cfg.LearningRate}
	pred := make([]float64, n)
	for i := range pred {
		pred[i] = base
	}
	resid := make([]float64, n)
	tcfg := forest.TreeConfig{
		MaxDepth:         cfg.Depth,
		MinLeaf:          2,
		MaxFeatures:      cfg.MaxFeatures, // 0 = the tree builder's √f default
		ThresholdSamples: cfg.ThresholdSamples,
	}

	sampleSize := int(cfg.Subsample * float64(n))
	if sampleSize < 1 {
		sampleSize = 1
	}
	// Features are fixed across rounds (only residuals change), so gather
	// the columnar frame once instead of once per tree.
	fr := forest.NewFrame(x)
	for round := 0; round < cfg.Trees; round++ {
		for i := range resid {
			resid[i] = y[i] - pred[i]
		}
		idx := rng.Perm(n)[:sampleSize]
		tree, err := forest.BuildTreeFrame(fr, resid, idx, tcfg, rng)
		if err != nil {
			return nil, err
		}
		m.trees = append(m.trees, tree)
		for i := range pred {
			pred[i] += cfg.LearningRate * tree.Predict(x[i])
		}
	}
	return m, nil
}

// Predict evaluates the ensemble on one feature vector.
func (m *Model) Predict(x []float64) float64 {
	out := m.base
	for _, t := range m.trees {
		out += m.rate * t.Predict(x)
	}
	return out
}

// PredictBatch evaluates every row.
func (m *Model) PredictBatch(x [][]float64) []float64 {
	out := make([]float64, len(x))
	for i, row := range x {
		out[i] = m.Predict(row)
	}
	return out
}

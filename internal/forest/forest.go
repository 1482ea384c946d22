package forest

import (
	"fmt"
	"time"

	"stac/internal/obs"
	"stac/internal/par"
	"stac/internal/stats"
)

var (
	forestTrainSeconds = obs.H("forest/train_seconds")
	forestTreesTrained = obs.C("forest/trees_trained")
)

// Config controls forest training.
type Config struct {
	// Trees is the number of estimators (the paper's deep forest uses
	// 100 per cascade forest, 50 per MGS forest).
	Trees int
	// Tree configures individual tree growth.
	Tree TreeConfig
	// Bootstrap resamples the training set per tree (bagging). Defaults
	// to true for best-split forests; completely-random forests rely on
	// split randomness and train on the full set.
	Bootstrap bool
	// Workers bounds training and batch-prediction parallelism; 0 means
	// GOMAXPROCS.
	Workers int
}

// RandomForest returns the standard configuration: nTrees best-split trees
// with √f feature sampling and bagging.
func RandomForest(nTrees int) Config {
	return Config{Trees: nTrees, Bootstrap: true}
}

// CompletelyRandomForest returns nTrees completely-random trees grown to
// purity on the full training set.
func CompletelyRandomForest(nTrees int) Config {
	return Config{Trees: nTrees, Tree: TreeConfig{CompletelyRandom: true}}
}

// Forest is a trained ensemble of regression trees.
type Forest struct {
	// trees are held by value, so a prediction reads every tree's node
	// slice from one array instead of from one heap object per tree.
	trees []Tree
	// workers bounds PredictBatch parallelism; 0 means GOMAXPROCS. Set
	// from Config.Workers at training time and deliberately not
	// serialised (it is a property of the host, not the model), so a
	// decoded forest uses GOMAXPROCS.
	workers int
}

// Train fits a forest on the feature matrix x and targets y. It gathers
// x into a columnar Frame once and shares it across all trees; see
// TrainFrame for callers that already hold a Frame.
func Train(x [][]float64, y []float64, cfg Config, rng *stats.RNG) (*Forest, error) {
	if cfg.Trees <= 0 {
		return nil, fmt.Errorf("forest: Trees must be positive, got %d", cfg.Trees)
	}
	if len(x) == 0 || len(x) != len(y) {
		return nil, fmt.Errorf("forest: bad training shapes: %d rows, %d targets", len(x), len(y))
	}
	return TrainFrame(NewFrame(x), y, cfg, rng)
}

// TrainFrame fits a forest on a columnar frame and targets y.
// Trees are trained in parallel; each tree owns an RNG split
// deterministically from rng *before* dispatch, so results are
// reproducible regardless of scheduling. The first tree error cancels
// dispatch of trees not yet started and is returned tagged with the
// failing tree's index.
func TrainFrame(fr *Frame, y []float64, cfg Config, rng *stats.RNG) (*Forest, error) {
	if cfg.Trees <= 0 {
		return nil, fmt.Errorf("forest: Trees must be positive, got %d", cfg.Trees)
	}
	if fr.n == 0 || fr.n != len(y) {
		return nil, fmt.Errorf("forest: bad training shapes: %d rows, %d targets", fr.n, len(y))
	}
	var tieRisk []bool
	if cfg.Tree.ThresholdSamples <= 0 && !cfg.Tree.CompletelyRandom {
		// Exact-sweep trees share the frame's presorted orders and
		// tie-risk flags; build both before the fan-out so the shared
		// state is read-only under concurrency.
		fr.buildSorted()
		tieRisk = frameTieRisk(fr, y)
	}

	// Derive per-tree RNGs up front for determinism.
	rngs := rng.SplitN(cfg.Trees)
	trees := make([]Tree, cfg.Trees)
	t0 := time.Now()
	if err := par.ForEach(cfg.Workers, cfg.Trees, func(t int) error {
		return buildForestTree(fr, y, cfg, t, rngs[t], tieRisk, trees)
	}); err != nil {
		return nil, err
	}
	forestTrainSeconds.Observe(time.Since(t0).Seconds())
	forestTreesTrained.Add(uint64(cfg.Trees))
	return &Forest{trees: trees, workers: cfg.Workers}, nil
}

// buildForestTree grows tree t into trees[t], wrapping any failure with
// the tree index so parallel training reports which estimator broke.
func buildForestTree(fr *Frame, y []float64, cfg Config, t int, r *stats.RNG, tieRisk []bool, trees []Tree) error {
	n := fr.n
	idx := make([]int, n)
	if cfg.Bootstrap {
		for i := range idx {
			idx[i] = r.Intn(n)
		}
	} else {
		for i := range idx {
			idx[i] = i
		}
	}
	tree, err := buildTreeTies(fr, y, idx, cfg.Tree, r, tieRisk)
	if err != nil {
		return fmt.Errorf("forest: tree %d: %w", t, err)
	}
	trees[t] = *tree
	return nil
}

// NumInputs returns how many leading features the forest reads: one
// more than the largest split feature. Predict needs x at least this
// long.
func (f *Forest) NumInputs() int {
	n := 0
	for _, t := range f.trees {
		for _, nd := range t.nodes {
			n = max(n, int(nd.feature)+1)
		}
	}
	return n
}

// Predict returns the ensemble mean for one feature vector.
func (f *Forest) Predict(x []float64) float64 {
	if len(f.trees) == 0 {
		return 0
	}
	var sum float64
	for i := range f.trees {
		sum += f.trees[i].Predict(x)
	}
	return sum / float64(len(f.trees))
}

// predictBatchChunk is the parallel grain for PredictBatch: small enough
// to balance uneven tree depths across workers, large enough that the
// dispatch overhead disappears behind len(trees) traversals per row.
const predictBatchChunk = 64

// PredictBatch predicts every row of x, fanning chunks of rows across
// the forest's worker bound. Row i's output depends only on row i, so
// the parallel result is identical to the serial one.
func (f *Forest) PredictBatch(x [][]float64) []float64 {
	out := make([]float64, len(x))
	if len(x) <= predictBatchChunk || par.Workers(f.workers) == 1 {
		for i, row := range x {
			out[i] = f.Predict(row)
		}
		return out
	}
	chunks := (len(x) + predictBatchChunk - 1) / predictBatchChunk
	// The worker func never errors, so ForEach cannot fail.
	_ = par.ForEach(f.workers, chunks, func(c int) error {
		lo := c * predictBatchChunk
		hi := lo + predictBatchChunk
		if hi > len(x) {
			hi = len(x)
		}
		for i := lo; i < hi; i++ {
			out[i] = f.Predict(x[i])
		}
		return nil
	})
	return out
}

// FeatureImportance returns variance-weighted per-feature importances
// across the ensemble, normalised to sum to 1: each split contributes
// n·variance of the node it divided, so splits that partition large,
// impure nodes (the real signal) dominate, and deep splits near pure
// leaves contribute almost nothing. numFeatures must cover the training
// dimensionality.
func (f *Forest) FeatureImportance(numFeatures int) []float64 {
	weights := make([]float64, numFeatures)
	total := 0.0
	for _, t := range f.trees {
		for i, n := range t.nodes {
			if n.feature >= 0 && int(n.feature) < numFeatures {
				gain := t.stats[i].gain
				weights[n.feature] += gain
				total += gain
			}
		}
	}
	if total > 0 {
		for i := range weights {
			weights[i] /= total
		}
	}
	return weights
}

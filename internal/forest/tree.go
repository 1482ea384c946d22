// Package forest implements CART regression trees, random forests and
// completely-random forests from scratch — the building blocks of the
// deep-forest model (§4.1). Random forests sample √f candidate features
// per split and choose the best variance-reducing threshold; completely-
// random forests pick the feature and threshold at random, growing until
// leaves are pure. Both follow Zhou & Feng's gcForest construction.
//
// Training runs on a columnar Frame (see frame.go) through an explicit
// work-stack builder (see build.go); BuildTree below is the row-major
// convenience wrapper.
package forest

import (
	"stac/internal/stats"
)

// TreeConfig controls tree growth.
type TreeConfig struct {
	// MaxDepth bounds tree depth; 0 means unlimited (grow to purity).
	MaxDepth int
	// MinLeaf is the minimum samples in a leaf (default 1).
	MinLeaf int
	// MaxFeatures is the number of candidate features per split; 0 means
	// √f (the random-forest default).
	MaxFeatures int
	// CompletelyRandom selects the split feature and threshold uniformly
	// at random instead of optimising variance reduction.
	CompletelyRandom bool
	// ThresholdSamples, when positive, evaluates that many sampled
	// thresholds per candidate feature instead of the exact sorted sweep.
	// This trades a little split quality for a large constant-factor
	// speedup — important for deep forests, which train hundreds of
	// trees per model.
	ThresholdSamples int
}

func (c TreeConfig) withDefaults() TreeConfig {
	if c.MinLeaf <= 0 {
		c.MinLeaf = 1
	}
	return c
}

// node is one tree node, 16 bytes, in preorder: an internal node's left
// child is the next node, so only the right child's index is stored.
// Leaves have feature == -1 and hold their output in thresh. This is all
// Predict reads, so four nodes share a cache line and a step left reads
// the neighbouring node.
type node struct {
	thresh  float64
	feature int32
	right   int32
}

// nodeStats is what training learned about a node beyond its split:
// the mean target of the rows that reached it and the split's impurity
// decrease (n·var − n_l·var_l − n_r·var_r, zero for leaves), the weight
// used by variance-weighted feature importance. Only MarshalBinary and
// FeatureImportance read it.
type nodeStats struct {
	mean, gain float64
}

// Tree is a trained regression tree: the prediction nodes and, aligned
// with them, their training statistics.
type Tree struct {
	nodes []node
	stats []nodeStats
}

// Predict returns the tree's output for a feature vector.
func (t *Tree) Predict(x []float64) float64 {
	nodes := t.nodes
	i := int32(0)
	for {
		n := &nodes[i]
		if n.feature < 0 {
			return n.thresh
		}
		if x[n.feature] <= n.thresh {
			i++
		} else {
			i = n.right
		}
	}
}

// BuildTree grows a regression tree over the rows of X indexed by idx.
// X is the full feature matrix, y the targets; idx selects the (possibly
// bootstrapped) training subset. rng drives feature and threshold
// sampling. Forest training gathers X into a shared Frame once instead
// of once per tree; use TrainFrame (or buildTree directly) for that.
func BuildTree(x [][]float64, y []float64, idx []int, cfg TreeConfig, rng *stats.RNG) (*Tree, error) {
	return buildTree(NewFrame(x), y, idx, cfg, rng)
}

// BuildTreeFrame grows a tree over an existing columnar frame, letting
// callers that fit many trees on fixed features with varying targets —
// boosting rounds, notably — gather the matrix once instead of once per
// tree. Not safe for concurrent calls on one frame with exact-sweep
// configs (the first call lazily builds the frame's presorted orders);
// use TrainFrame for parallel ensembles.
func BuildTreeFrame(fr *Frame, y []float64, idx []int, cfg TreeConfig, rng *stats.RNG) (*Tree, error) {
	return buildTree(fr, y, idx, cfg, rng)
}

// sampleFeatures draws k distinct feature indices. Slice-backed partial
// Fisher–Yates: swapping through a materialised permutation visits the
// same rng.Intn sequence and yields the same output as the historical
// map-backed version (refSampleFeatures in reference_test.go).
func sampleFeatures(n, k int, rng *stats.RNG) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	if k >= n {
		return out
	}
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		out[i], out[j] = out[j], out[i]
	}
	return out[:k]
}

package forest

import (
	"fmt"
	"math"
	"sort"

	"stac/internal/stats"
)

// This file retains the pre-rewrite recursive tree builder verbatim as
// the reference implementation for TestBuilderEquivalence: the columnar
// work-stack builder in build.go must produce node-for-node identical
// trees and consume the RNG stream identically. Keep this in sync with
// nothing — it is frozen history, the oracle the rewrite is pinned to.
// Only its node storage follows the live layout: a leaf's mean goes in
// its thresh slot too, and a split stores its right child, since its
// left child, built first, is always the next node.

// refBuildTree is the pre-rewrite BuildTree.
func refBuildTree(x [][]float64, y []float64, idx []int, cfg TreeConfig, rng *stats.RNG) (*Tree, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, fmt.Errorf("forest: bad training shapes: %d rows, %d targets", len(x), len(y))
	}
	if len(idx) == 0 {
		return nil, fmt.Errorf("forest: empty index set")
	}
	cfg = cfg.withDefaults()
	b := &refBuilder{x: x, y: y, cfg: cfg, rng: rng, nFeatures: len(x[0])}
	t := &Tree{}
	// Work on a copy; the builder partitions idx in place.
	work := append([]int(nil), idx...)
	b.tree = t
	b.grow(work, 0)
	return t, nil
}

type refBuilder struct {
	x         [][]float64
	y         []float64
	cfg       TreeConfig
	rng       *stats.RNG
	nFeatures int
	tree      *Tree
}

// grow recursively builds the subtree over idx and returns its node index.
func (b *refBuilder) grow(idx []int, depth int) int32 {
	me := int32(len(b.tree.nodes))
	b.tree.nodes = append(b.tree.nodes, node{feature: -1})
	b.tree.stats = append(b.tree.stats, nodeStats{})

	mean, variance := meanVar(b.y, idx)
	b.tree.nodes[me].thresh = mean
	b.tree.stats[me].mean = mean

	if len(idx) < 2*b.cfg.MinLeaf || variance <= 1e-18 {
		return me
	}
	if b.cfg.MaxDepth > 0 && depth >= b.cfg.MaxDepth {
		return me
	}

	feat, thresh, ok := b.chooseSplit(idx)
	if !ok {
		return me
	}
	// Partition idx around the threshold.
	lo, hi := 0, len(idx)
	for lo < hi {
		if b.x[idx[lo]][feat] <= thresh {
			lo++
		} else {
			hi--
			idx[lo], idx[hi] = idx[hi], idx[lo]
		}
	}
	if lo == 0 || lo == len(idx) || lo < b.cfg.MinLeaf || len(idx)-lo < b.cfg.MinLeaf {
		return me
	}
	// True impurity decrease: n·var − n_l·var_l − n_r·var_r.
	_, varL := meanVar(b.y, idx[:lo])
	_, varR := meanVar(b.y, idx[lo:])
	gain := float64(len(idx))*variance - float64(lo)*varL - float64(len(idx)-lo)*varR
	if gain < 0 {
		gain = 0
	}
	left := b.grow(idx[:lo], depth+1)
	right := b.grow(idx[lo:], depth+1)
	if left != me+1 {
		panic(fmt.Sprintf("reference: left child %d of node %d is not the next node", left, me))
	}
	b.tree.nodes[me] = node{feature: int32(feat), thresh: thresh, right: right}
	b.tree.stats[me].gain = gain
	return me
}

// chooseSplit selects the split feature and threshold.
func (b *refBuilder) chooseSplit(idx []int) (int, float64, bool) {
	if b.cfg.CompletelyRandom {
		return b.randomSplit(idx)
	}
	k := b.cfg.MaxFeatures
	if k <= 0 {
		k = int(math.Sqrt(float64(b.nFeatures)))
		if k < 1 {
			k = 1
		}
	}
	if k > b.nFeatures {
		k = b.nFeatures
	}

	bestFeat, bestThresh := -1, 0.0
	bestScore := math.Inf(-1)
	// Sample k distinct candidate features.
	for _, f := range refSampleFeatures(b.nFeatures, k, b.rng) {
		var thresh, score float64
		var ok bool
		if b.cfg.ThresholdSamples > 0 {
			thresh, score, ok = b.sampledSplitOnFeature(idx, f)
		} else {
			thresh, score, ok = bestSplitOnFeature(b.x, b.y, idx, f)
		}
		if ok && score > bestScore {
			bestScore = score
			bestFeat = f
			bestThresh = thresh
		}
	}
	if bestFeat < 0 {
		return 0, 0, false
	}
	return bestFeat, bestThresh, true
}

// randomSplit implements completely-random trees: a random feature with a
// random threshold between that feature's min and max over idx. A few
// retries tolerate constant features.
func (b *refBuilder) randomSplit(idx []int) (int, float64, bool) {
	for attempt := 0; attempt < 12; attempt++ {
		f := b.rng.Intn(b.nFeatures)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, i := range idx {
			v := b.x[i][f]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if hi <= lo {
			continue
		}
		t := lo + b.rng.Float64()*(hi-lo)
		if t >= hi { // ensure a non-empty right side
			t = lo
		}
		return f, t, true
	}
	return 0, 0, false
}

// sampledSplitOnFeature evaluates ThresholdSamples random thresholds drawn
// between the node's min and max of feature f and returns the best, using
// the same variance-reduction score as the exact sweep but in O(n·samples)
// without sorting or allocation.
func (b *refBuilder) sampledSplitOnFeature(idx []int, f int) (float64, float64, bool) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, i := range idx {
		v := b.x[i][f]
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi <= lo {
		return 0, 0, false
	}
	bestScore := math.Inf(-1)
	bestThresh := 0.0
	found := false
	for s := 0; s < b.cfg.ThresholdSamples; s++ {
		t := lo + b.rng.Float64()*(hi-lo)
		var leftSum, totalSum float64
		nl := 0
		for _, i := range idx {
			totalSum += b.y[i]
			if b.x[i][f] <= t {
				leftSum += b.y[i]
				nl++
			}
		}
		nr := len(idx) - nl
		if nl == 0 || nr == 0 {
			continue
		}
		rightSum := totalSum - leftSum
		score := leftSum*leftSum/float64(nl) + rightSum*rightSum/float64(nr)
		if score > bestScore {
			bestScore = score
			bestThresh = t
			found = true
		}
	}
	return bestThresh, bestScore, found
}

// bestSplitOnFeature finds the threshold maximising variance reduction for
// one feature via a sorted sweep.
func bestSplitOnFeature(x [][]float64, y []float64, idx []int, f int) (float64, float64, bool) {
	n := len(idx)
	order := append([]int(nil), idx...)
	sort.Slice(order, func(a, b int) bool { return x[order[a]][f] < x[order[b]][f] })

	var totalSum, totalSq float64
	for _, i := range order {
		totalSum += y[i]
		totalSq += y[i] * y[i]
	}

	bestScore := math.Inf(-1)
	bestThresh := 0.0
	found := false
	var leftSum float64
	for k := 0; k < n-1; k++ {
		leftSum += y[order[k]]
		// Only split between distinct feature values.
		if x[order[k]][f] == x[order[k+1]][f] {
			continue
		}
		nl := float64(k + 1)
		nr := float64(n - k - 1)
		rightSum := totalSum - leftSum
		// Variance reduction ∝ sum_l²/n_l + sum_r²/n_r (total terms are
		// constant across thresholds).
		score := leftSum*leftSum/nl + rightSum*rightSum/nr
		if score > bestScore {
			bestScore = score
			bestThresh = (x[order[k]][f] + x[order[k+1]][f]) / 2
			found = true
		}
	}
	return bestThresh, bestScore, found
}

// refSampleFeatures is the pre-rewrite map-backed partial Fisher–Yates;
// the live slice-based sampleFeatures must preserve its exact rng.Intn
// draw sequence and output.
func refSampleFeatures(n, k int, rng *stats.RNG) []int {
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	// Partial Fisher–Yates over a lazily materialised permutation.
	chosen := make(map[int]int, k)
	out := make([]int, k)
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		vi, oki := chosen[i]
		if !oki {
			vi = i
		}
		vj, okj := chosen[j]
		if !okj {
			vj = j
		}
		out[i] = vj
		chosen[j] = vi
		chosen[i] = vj
	}
	return out
}

// meanVar is the reference per-node statistics fold (the live builder's
// meanVarRows makes the identical sequential fold over int32 segments).
func meanVar(y []float64, idx []int) (float64, float64) {
	var sum, sq float64
	for _, i := range idx {
		sum += y[i]
		sq += y[i] * y[i]
	}
	n := float64(len(idx))
	mean := sum / n
	return mean, sq/n - mean*mean
}

package forest

import (
	"fmt"
	"math"
	"sort"

	"stac/internal/stats"
)

// This file is the tree-training hot path: an explicit work-stack
// builder over a columnar Frame with reusable scratch buffers. It is
// behaviour-pinned to the recursive reference builder kept under
// reference_test.go — same RNG draw order, same split selection, same
// in-place partition order (which fixes the floating-point summation
// order of every node statistic) — so trained models are node-for-node
// identical; TestBuilderEquivalence enforces this.

// buildItem is one pending subtree: the rows segment [lo,hi), its depth,
// for a right child the parent node to patch once the subtree's root is
// allocated (a left child is always the node after its parent), and the
// segment's mean/variance (computed by the parent, exactly the values
// the reference builder recomputes at child entry).
type buildItem struct {
	lo, hi   int
	depth    int
	parent   int32
	right    bool
	mean     float64
	variance float64
}

// splitPair is a (feature value, target) pair for the tie-node sort
// fallback: sorting pairs makes the same comparison decisions as the
// reference's sort.Slice over row indices — so the same permutation —
// without two pointer dereferences per comparison.
type splitPair struct {
	v, y float64
}

// treeBuilder grows one tree over a shared read-only Frame. All scratch
// is owned by the builder, so parallel trees never contend.
type treeBuilder struct {
	fr  *Frame
	y   []float64
	cfg TreeConfig
	rng *stats.RNG

	// built holds the tree's nodes in preorder with their statistics
	// until grow finishes and tree splits them into the Tree's arrays.
	built []builtNode
	m     int // sample (multiset) size

	// tieRisk flags, per feature, whether the frame contains any pair of
	// rows with equal feature value but different targets. Only such
	// features can ever force a node onto the tie fallback, so tie-free
	// features (the common case for continuous data) skip the per-node
	// tie scan entirely. Computed once per Train over the frame — a
	// bootstrap subset cannot introduce ties absent from the full set.
	tieRisk []bool

	// rows is the node working multiset, partitioned in place with the
	// reference partition loop so every per-node scan folds y values in
	// the reference order.
	rows []int32
	// sorted holds the node-segmented per-feature presorted orders
	// (d segments of length m, aligned with rows segments); nil unless
	// the exact sweep is configured.
	sorted []int32
	// spill buffers the right-going entries during stable partition of
	// the sorted orders.
	spill []int32
	// mask caches, per base row, which side of the current split the row
	// falls on (1 = left). Computed once per split from the split
	// feature's column, then reused by every feature's segment partition,
	// replacing d float64 gather-and-compares per row with d byte loads.
	mask []uint8
	// pairs is the tie-node sort fallback scratch.
	pairs []splitPair

	perm    []int // sampleFeatures lazily-reset permutation
	feats   []int // sampled feature output
	thr     []float64
	leftSum []float64
	leftN   []int

	stack []buildItem
}

// buildTree grows a regression tree over the rows of fr indexed by idx.
// For exact-sweep configs the frame's presorted orders must already be
// built (single-tree callers may rely on the lazy buildSorted here;
// concurrent callers must presort via TrainFrame before dispatch).
func buildTree(fr *Frame, y []float64, idx []int, cfg TreeConfig, rng *stats.RNG) (*Tree, error) {
	var tieRisk []bool
	if cfg.withDefaults().ThresholdSamples <= 0 && !cfg.CompletelyRandom {
		fr.buildSorted()
		tieRisk = frameTieRisk(fr, y)
	}
	return buildTreeTies(fr, y, idx, cfg, rng, tieRisk)
}

// buildTreeTies is buildTree with the per-feature tie-risk flags already
// computed; TrainFrame computes them once and shares them across trees.
func buildTreeTies(fr *Frame, y []float64, idx []int, cfg TreeConfig, rng *stats.RNG, tieRisk []bool) (*Tree, error) {
	if fr.n == 0 || fr.n != len(y) {
		return nil, fmt.Errorf("forest: bad training shapes: %d rows, %d targets", fr.n, len(y))
	}
	if len(idx) == 0 {
		return nil, fmt.Errorf("forest: empty index set")
	}
	cfg = cfg.withDefaults()
	b := &treeBuilder{fr: fr, y: y, cfg: cfg, rng: rng, m: len(idx), tieRisk: tieRisk}
	b.rows = make([]int32, b.m)
	for k, i := range idx {
		b.rows[k] = int32(i)
	}
	if cfg.ThresholdSamples <= 0 && !cfg.CompletelyRandom {
		fr.buildSorted()
		b.initSorted(idx)
	}
	if s := cfg.ThresholdSamples; s > 0 {
		b.thr = make([]float64, s)
		b.leftSum = make([]float64, s)
		b.leftN = make([]int, s)
	}
	b.perm = make([]int, fr.d)
	b.feats = make([]int, fr.d)
	// Every leaf holds at least one of the m samples, so a tree has at
	// most 2m−1 nodes, and at most 2^(MaxDepth+1)−1 when its depth is
	// capped: one allocation holds any tree.
	maxNodes := 2*b.m - 1
	if d := cfg.MaxDepth; d > 0 && d < 30 {
		maxNodes = min(maxNodes, 1<<(d+1)-1)
	}
	b.built = make([]builtNode, 0, maxNodes)
	b.grow()
	return b.tree(), nil
}

// builtNode is a node and its statistics while the tree grows.
type builtNode struct {
	node
	nodeStats
}

// tree copies the grown nodes into a Tree's two exact-size arrays.
func (b *treeBuilder) tree() *Tree {
	t := &Tree{nodes: make([]node, len(b.built)), stats: make([]nodeStats, len(b.built))}
	for i, bn := range b.built {
		t.nodes[i], t.stats[i] = bn.node, bn.nodeStats
	}
	return t
}

// initSorted expands the frame's per-feature presorted base orders into
// this tree's (possibly bootstrapped) sample multiset: each base row is
// emitted once per occurrence in idx, keeping duplicates adjacent and
// the whole order stable by (value, row).
func (b *treeBuilder) initSorted(idx []int) {
	fr := b.fr
	counts := make([]int32, fr.n)
	for _, i := range idx {
		counts[i]++
	}
	// Two unconditional stores per base row cover counts 0..2 without a
	// data-dependent branch (bootstrap counts are ~Poisson(1), so ~92%
	// of rows); higher counts take the rare slow loop. Overshoot from
	// the paired store lands in the next segment's yet-unwritten start,
	// hence the one-element slack on the final segment.
	b.sorted = make([]int32, fr.d*b.m+2)
	for j := 0; j < fr.d; j++ {
		base := fr.sorted[j*fr.n : (j+1)*fr.n]
		seg := b.sorted[j*b.m:]
		k := int32(0)
		for _, r := range base {
			c := counts[r]
			seg[k] = r
			seg[k+1] = r
			k += c
			for p := k - c + 2; p < k; p++ {
				seg[p] = r
			}
		}
	}
	b.spill = make([]int32, b.m)
	b.pairs = make([]splitPair, b.m)
	b.mask = make([]uint8, fr.n)
}

// grow runs the explicit-stack preorder construction. Pop order matches
// the reference recursion (node, left subtree, right subtree), so node
// indices and RNG consumption are identical, and a split's left child is
// the node allocated right after it.
func (b *treeBuilder) grow() {
	mean, variance := meanVarRows(b.y, b.rows)
	b.stack = append(b.stack[:0], buildItem{lo: 0, hi: b.m, mean: mean, variance: variance})
	for len(b.stack) > 0 {
		it := b.stack[len(b.stack)-1]
		b.stack = b.stack[:len(b.stack)-1]

		me := int32(len(b.built))
		b.built = append(b.built, builtNode{node{feature: -1, thresh: it.mean}, nodeStats{mean: it.mean}})
		if it.right {
			b.built[it.parent].right = me
		}

		nNode := it.hi - it.lo
		if nNode < 2*b.cfg.MinLeaf || it.variance <= 1e-18 {
			continue
		}
		if b.cfg.MaxDepth > 0 && it.depth >= b.cfg.MaxDepth {
			continue
		}
		feat, thresh, ok := b.chooseSplit(it.lo, it.hi)
		if !ok {
			continue
		}
		// Partition rows around the threshold — the reference loop, so
		// the children's element order (and thus every downstream
		// floating-point fold) is preserved exactly.
		col := b.fr.cols[feat*b.fr.n:]
		lo, hi := it.lo, it.hi
		for lo < hi {
			if col[b.rows[lo]] <= thresh {
				lo++
			} else {
				hi--
				b.rows[lo], b.rows[hi] = b.rows[hi], b.rows[lo]
			}
		}
		nl := lo - it.lo
		if nl == 0 || nl == nNode || nl < b.cfg.MinLeaf || nNode-nl < b.cfg.MinLeaf {
			continue
		}
		meanL, varL := meanVarRows(b.y, b.rows[it.lo:lo])
		meanR, varR := meanVarRows(b.y, b.rows[lo:it.hi])
		gain := float64(nNode)*it.variance - float64(nl)*varL - float64(nNode-nl)*varR
		if gain < 0 {
			gain = 0
		}
		b.built[me].node = node{feature: int32(feat), thresh: thresh}
		b.built[me].gain = gain
		if b.sorted != nil {
			needL := b.needsSorted(nl, it.depth+1, varL)
			needR := b.needsSorted(nNode-nl, it.depth+1, varR)
			if needL || needR {
				b.partitionSorted(it.lo, it.hi, feat, thresh, needL, needR)
			}
		}
		// LIFO: push right first so the left subtree is built next.
		b.stack = append(b.stack,
			buildItem{lo: lo, hi: it.hi, depth: it.depth + 1, parent: me, right: true, mean: meanR, variance: varR},
			buildItem{lo: it.lo, hi: lo, depth: it.depth + 1, mean: meanL, variance: varL})
	}
}

// needsSorted reports whether a child node will ever read its presorted
// segments: a leaf-bound child (too small, pure, or depth-capped) never
// calls chooseSplit, so its half of the partition — and, if both halves
// are leaf-bound, the whole partition — can be skipped.
func (b *treeBuilder) needsSorted(size, depth int, variance float64) bool {
	if size < 2*b.cfg.MinLeaf || variance <= 1e-18 {
		return false
	}
	if b.cfg.MaxDepth > 0 && depth >= b.cfg.MaxDepth {
		return false
	}
	return true
}

// partitionSorted stably splits every feature's presorted segment
// [lo,hi) into the two children's halves, preserving ascending
// (value, row) order within each half. The split side is a coin flip
// per element, so every variant stores unconditionally and steers with
// flag-increments instead of a (mispredicted) branch. When only one
// child will ever read its segments (needL/needR from needsSorted) the
// dead half is left as garbage, halving the stores.
func (b *treeBuilder) partitionSorted(lo, hi, feat int, thresh float64, needL, needR bool) {
	// One row sides the same way in every feature's segment, so resolve
	// the float compare once per row here and let the d per-feature loops
	// read a byte instead of gathering and comparing a float64.
	col := b.fr.cols[feat*b.fr.n:]
	mask := b.mask
	for _, r := range b.rows[lo:hi] {
		c := uint8(0)
		if col[r] <= thresh {
			c = 1
		}
		mask[r] = c
	}
	spill := b.spill
	for j := 0; j < b.fr.d; j++ {
		seg := b.sorted[j*b.m+lo : j*b.m+hi]
		switch {
		case needL && needR:
			w, ws := 0, 0
			for _, r := range seg {
				c := int(mask[r])
				// w never passes the read cursor, so the dead store on
				// the right-going side clobbers only already-copied
				// elements.
				seg[w] = r
				spill[ws] = r
				w += c
				ws += 1 - c
			}
			copy(seg[w:], spill[:ws])
		case needL:
			// In-place forward compaction of the left half. The write
			// cursor w trails the read cursor, so the dead store on a
			// right-going element clobbers only a slot the next kept
			// element overwrites (or, past the last kept element, the
			// dead right half).
			w := 0
			for _, r := range seg {
				seg[w] = r
				w += int(mask[r])
			}
		default:
			// Right half only: collect right-going rows in spill, then
			// place them at the segment's tail (the child's [nl,hi)
			// window); the left half is left as garbage.
			ws := 0
			for _, r := range seg {
				spill[ws] = r
				ws += 1 - int(mask[r])
			}
			copy(seg[len(seg)-ws:], spill[:ws])
		}
	}
}

// chooseSplit selects the split feature and threshold for the rows
// segment [lo,hi), consuming the RNG exactly like the reference.
func (b *treeBuilder) chooseSplit(lo, hi int) (int, float64, bool) {
	if b.cfg.CompletelyRandom {
		return b.randomSplit(lo, hi)
	}
	d := b.fr.d
	k := b.cfg.MaxFeatures
	if k <= 0 {
		k = int(math.Sqrt(float64(d)))
		if k < 1 {
			k = 1
		}
	}
	if k > d {
		k = d
	}

	bestFeat, bestThresh := -1, 0.0
	bestScore := math.Inf(-1)
	for _, f := range b.sampleFeatures(k) {
		var thresh, score float64
		var ok bool
		if b.cfg.ThresholdSamples > 0 {
			thresh, score, ok = b.sampledSplit(lo, hi, f)
		} else {
			thresh, score, ok = b.exactSplit(lo, hi, f)
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

// sampleFeatures draws k distinct feature indices into the builder's
// scratch with the same rng.Intn sequence as the reference partial
// Fisher–Yates (the package-level sampleFeatures is the allocating
// form; both swap through a materialised permutation).
func (b *treeBuilder) sampleFeatures(k int) []int {
	d := b.fr.d
	if k >= d {
		out := b.feats[:d]
		for i := range out {
			out[i] = i
		}
		return out
	}
	perm := b.perm
	for i := range perm {
		perm[i] = i
	}
	out := b.feats[:k]
	for i := 0; i < k; i++ {
		j := i + b.rng.Intn(d-i)
		perm[i], perm[j] = perm[j], perm[i]
		out[i] = perm[i]
	}
	return out
}

// randomSplit implements completely-random trees: a random feature with
// a random threshold between that feature's min and max over the node.
// A few retries tolerate constant features.
func (b *treeBuilder) randomSplit(lo, hi int) (int, float64, bool) {
	rows := b.rows[lo:hi]
	for attempt := 0; attempt < 12; attempt++ {
		f := b.rng.Intn(b.fr.d)
		col := b.fr.cols[f*b.fr.n:]
		vlo, vhi := math.Inf(1), math.Inf(-1)
		for _, i := range rows {
			v := col[i]
			if v < vlo {
				vlo = v
			}
			if v > vhi {
				vhi = v
			}
		}
		if vhi <= vlo {
			continue
		}
		t := vlo + b.rng.Float64()*(vhi-vlo)
		if t >= vhi { // ensure a non-empty right side
			t = vlo
		}
		return f, t, true
	}
	return 0, 0, false
}

// sampledSplit fuses the sampled splitter: all ThresholdSamples
// candidate thresholds for the feature are drawn up front (the same RNG
// order as the reference, which interleaves draws with scans that never
// touch the RNG) and their left sums accumulate simultaneously in one
// pass over the node instead of one full rescan per sample. Each
// per-threshold accumulator folds y values in exactly the reference
// element order, so scores are bit-identical.
func (b *treeBuilder) sampledSplit(lo, hi, f int) (float64, float64, bool) {
	rows := b.rows[lo:hi]
	col := b.fr.cols[f*b.fr.n:]
	vlo, vhi := math.Inf(1), math.Inf(-1)
	for _, i := range rows {
		v := col[i]
		if v < vlo {
			vlo = v
		}
		if v > vhi {
			vhi = v
		}
	}
	if vhi <= vlo {
		return 0, 0, false
	}
	s := b.cfg.ThresholdSamples
	thr, leftSum, leftN := b.thr[:s], b.leftSum[:s], b.leftN[:s]
	for i := range thr {
		thr[i] = vlo + b.rng.Float64()*(vhi-vlo)
		leftSum[i] = 0
		leftN[i] = 0
	}
	// Which side a row falls on is a coin flip per threshold, so the
	// inner loop adds to every accumulator and lets a 0/all-ones mask
	// choose between yv and +0 instead of taking a mispredicted branch.
	// This is exact: every leftSum starts at +0, an IEEE sum that starts
	// at +0 never becomes −0, and adding +0 to anything else, NaN and ±Inf
	// included, leaves it unchanged.
	var totalSum float64
	for _, i := range rows {
		yv := b.y[i]
		yb := math.Float64bits(yv)
		v := col[i]
		totalSum += yv
		for t, th := range thr {
			var left uint64
			if v <= th {
				left = 1
			}
			leftSum[t] += math.Float64frombits(yb & -left)
			leftN[t] += int(left)
		}
	}
	bestScore := math.Inf(-1)
	bestThresh := 0.0
	found := false
	for t := range thr {
		nl := leftN[t]
		nr := len(rows) - nl
		if nl == 0 || nr == 0 {
			continue
		}
		rightSum := totalSum - leftSum[t]
		score := leftSum[t]*leftSum[t]/float64(nl) + rightSum*rightSum/float64(nr)
		if score > bestScore {
			bestScore = score
			bestThresh = thr[t]
			found = true
		}
	}
	return bestThresh, bestScore, found
}

// exactSplit finds the threshold maximising variance reduction for one
// feature by sweeping the node's presorted order — no per-node sort.
// The sweep folds in stable (value, row) order while the reference folds
// in its sort.Slice permutation; the two orders agree except inside runs
// of equal feature values, and there a reorder is only observable when
// the run mixes different targets (equal (value, y) pairs — bootstrap
// duplicates included — fold identically in any order). Such nodes fall
// back to the reference sort path (exactSplitTied), because bit-identity
// is the contract and a reordered fold can differ in the last ulps.
func (b *treeBuilder) exactSplit(lo, hi, f int) (float64, float64, bool) {
	col := b.fr.cols[f*b.fr.n:]
	seg := b.sorted[f*b.m+lo : f*b.m+hi]
	n := len(seg)

	// Total sum in presorted fold order; for features the frame-level
	// precheck flagged as tie-risky, the same pass detects equal-value
	// runs with mixed targets (any such run has some adjacent differing
	// pair, so the adjacent check is exhaustive).
	var totalSum float64
	if b.tieRisk == nil || b.tieRisk[f] {
		prevV, prevY := math.Inf(-1), 0.0
		for _, i := range seg {
			v, yv := col[i], b.y[i]
			if v == prevV && yv != prevY {
				return b.exactSplitTied(lo, hi, f)
			}
			totalSum += yv
			prevV, prevY = v, yv
		}
	} else {
		for _, i := range seg {
			totalSum += b.y[i]
		}
	}

	bestScore := math.Inf(-1)
	bestThresh := 0.0
	found := false
	var leftSum float64
	v := 0.0
	if n > 0 {
		v = col[seg[0]]
	}
	for k := 0; k < n-1; k++ {
		leftSum += b.y[seg[k]]
		vNext := col[seg[k+1]]
		// Only split between distinct feature values.
		if v == vNext {
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
			bestThresh = (v + vNext) / 2
			found = true
		}
		v = vNext
	}
	return bestThresh, bestScore, found
}

// exactSplitTied is the tie-node fallback: sort (value, y) pairs in the
// node's current rows order. sort.Slice makes identical comparison
// decisions on pairs as the reference makes on row indices, so the
// permutation — and with it the summation order at every candidate
// boundary — matches the reference builder bit-for-bit.
func (b *treeBuilder) exactSplitTied(lo, hi, f int) (float64, float64, bool) {
	col := b.fr.cols[f*b.fr.n:]
	rows := b.rows[lo:hi]
	n := len(rows)
	pairs := b.pairs[:n]
	for k, i := range rows {
		pairs[k] = splitPair{v: col[i], y: b.y[i]}
	}
	sort.Slice(pairs, func(a, c int) bool { return pairs[a].v < pairs[c].v })

	var totalSum float64
	for k := range pairs {
		totalSum += pairs[k].y
	}
	bestScore := math.Inf(-1)
	bestThresh := 0.0
	found := false
	var leftSum float64
	for k := 0; k < n-1; k++ {
		leftSum += pairs[k].y
		if pairs[k].v == pairs[k+1].v {
			continue
		}
		nl := float64(k + 1)
		nr := float64(n - k - 1)
		rightSum := totalSum - leftSum
		score := leftSum*leftSum/nl + rightSum*rightSum/nr
		if score > bestScore {
			bestScore = score
			bestThresh = (pairs[k].v + pairs[k+1].v) / 2
			found = true
		}
	}
	return bestThresh, bestScore, found
}

// frameTieRisk reports, per feature, whether the frame holds two rows
// with equal feature value but different targets — the only situation in
// which a node's presorted fold order can diverge from the reference
// sort's permutation by more than a reorder of identical terms. Requires
// fr.buildSorted; a scan of adjacent entries is exhaustive because any
// equal-value run with mixed targets has an adjacent differing pair.
func frameTieRisk(fr *Frame, y []float64) []bool {
	risk := make([]bool, fr.d)
	for j := 0; j < fr.d; j++ {
		col := fr.cols[j*fr.n:]
		ord := fr.sorted[j*fr.n : (j+1)*fr.n]
		for k := 0; k+1 < len(ord); k++ {
			if col[ord[k]] == col[ord[k+1]] && y[ord[k]] != y[ord[k+1]] {
				risk[j] = true
				break
			}
		}
	}
	return risk
}

// meanVarRows is meanVar over an int32 row segment: the same sequential
// fold, so results are bit-identical for the same element order.
func meanVarRows(y []float64, rows []int32) (float64, float64) {
	var sum, sq float64
	for _, i := range rows {
		sum += y[i]
		sq += y[i] * y[i]
	}
	n := float64(len(rows))
	mean := sum / n
	return mean, sq/n - mean*mean
}

package forest

import (
	"bytes"
	"math"
	"testing"

	"stac/internal/stats"
)

// equivCase is one (data, config) pairing for the differential test.
type equivCase struct {
	name string
	cfg  TreeConfig
}

var equivConfigs = []equivCase{
	{"exact-sweep", TreeConfig{}},
	{"exact-sweep-limits", TreeConfig{MaxDepth: 4, MinLeaf: 3, MaxFeatures: 2}},
	{"exact-sweep-all-features", TreeConfig{MaxFeatures: 1 << 10}},
	{"sampled", TreeConfig{ThresholdSamples: 8}},
	{"sampled-limits", TreeConfig{ThresholdSamples: 3, MaxDepth: 6, MinLeaf: 2}},
	{"completely-random", TreeConfig{CompletelyRandom: true}},
	{"completely-random-capped", TreeConfig{CompletelyRandom: true, MaxDepth: 5}},
}

// equivData builds a randomized training set. Quantizing some features to
// a handful of levels forces tie-heavy nodes (the exact sweep's fallback
// path); leaving the rest continuous exercises the presorted fast path.
func equivData(r *stats.RNG, n, d int) ([][]float64, []float64) {
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, d)
		for j := range row {
			v := r.Float64()
			if j%2 == 1 { // quantized → duplicate feature values across rows
				v = math.Floor(v * 4)
			}
			row[j] = v
		}
		x[i] = row
		y[i] = row[0]*3 - row[d-1] + 0.1*r.NormFloat64()
	}
	return x, y
}

// treesEqual compares every field of every node: the prediction nodes
// and training statistics directly, then the encoded trees, which spell
// out both children of every split and compare floats bit for bit.
func treesEqual(t *testing.T, want, got *Tree) {
	t.Helper()
	if len(want.nodes) != len(got.nodes) || len(want.stats) != len(got.stats) {
		t.Fatalf("node count: reference %d/%d, columnar %d/%d",
			len(want.nodes), len(want.stats), len(got.nodes), len(got.stats))
	}
	for i := range want.nodes {
		if want.nodes[i] != got.nodes[i] || want.stats[i] != got.stats[i] {
			t.Fatalf("node %d differs:\nreference %+v %+v\ncolumnar  %+v %+v",
				i, want.nodes[i], want.stats[i], got.nodes[i], got.stats[i])
		}
	}
	wb, err := want.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	gb, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wb, gb) {
		t.Fatal("encoded trees differ")
	}
}

// TestBuilderEquivalence pins the columnar work-stack builder to the
// frozen recursive reference: node-for-node identical trees (feature,
// threshold, both children, value, gain — exact float equality) and
// identical RNG consumption, across exact-sweep, sampled and
// completely-random configs, with and without bootstrap resampling.
func TestBuilderEquivalence(t *testing.T) {
	geom := stats.NewRNG(97)
	for trial := 0; trial < 6; trial++ {
		n := 20 + geom.Intn(120)
		d := 2 + geom.Intn(9)
		x, y := equivData(geom, n, d)
		fr := NewFrame(x)
		for _, tc := range equivConfigs {
			for _, bootstrap := range []bool{false, true} {
				seed := uint64(1000*trial + 7)
				idxRef := make([]int, n)
				idxNew := make([]int, n)
				rngRef := stats.NewRNG(seed)
				rngNew := stats.NewRNG(seed)
				if bootstrap {
					for i := range idxRef {
						idxRef[i] = rngRef.Intn(n)
					}
					for i := range idxNew {
						idxNew[i] = rngNew.Intn(n)
					}
				} else {
					for i := range idxRef {
						idxRef[i] = i
						idxNew[i] = i
					}
				}
				ref, err := refBuildTree(x, y, idxRef, tc.cfg, rngRef)
				if err != nil {
					t.Fatalf("%s: reference: %v", tc.name, err)
				}
				got, err := buildTree(fr, y, idxNew, tc.cfg, rngNew)
				if err != nil {
					t.Fatalf("%s: columnar: %v", tc.name, err)
				}
				treesEqual(t, ref, got)
				// Both builders must leave the RNG at the same stream
				// position — otherwise multi-tree training would diverge
				// after the first tree.
				if a, b := rngRef.Uint64(), rngNew.Uint64(); a != b {
					t.Fatalf("%s (bootstrap=%v, trial %d): RNG position diverged (%d vs %d)",
						tc.name, bootstrap, trial, a, b)
				}
			}
		}
	}
}

// TestSampleFeaturesMatchesReference pins the slice-based sampleFeatures
// to the historical map-backed version: identical output and identical
// rng.Intn draw sequence for every (n, k).
func TestSampleFeaturesMatchesReference(t *testing.T) {
	for n := 1; n <= 24; n++ {
		for k := 1; k <= n+2; k++ {
			seed := uint64(n*100 + k)
			rRef := stats.NewRNG(seed)
			rNew := stats.NewRNG(seed)
			ref := refSampleFeatures(n, k, rRef)
			got := sampleFeatures(n, k, rNew)
			if len(ref) != len(got) {
				t.Fatalf("n=%d k=%d: length %d vs reference %d", n, k, len(got), len(ref))
			}
			for i := range ref {
				if ref[i] != got[i] {
					t.Fatalf("n=%d k=%d: output %v, reference %v", n, k, got, ref)
				}
			}
			if rRef.Uint64() != rNew.Uint64() {
				t.Fatalf("n=%d k=%d: RNG draw sequence diverged", n, k)
			}
		}
	}
}

// TestDepthIterativeDeepChain builds a degenerate right-leaning chain far
// deeper than any recursion-friendly depth and checks Depth handles it.
func TestDepthIterativeDeepChain(t *testing.T) {
	const depth = 200_000
	tr := &Tree{nodes: make([]node, 2*depth+1)}
	for i := 0; i < depth; i++ {
		// Internal node 2i: its left child is leaf 2i+1, its right child
		// the next internal node (or the final leaf).
		tr.nodes[2*i] = node{feature: 0, right: int32(2*i + 2)}
		tr.nodes[2*i+1] = node{feature: -1}
	}
	tr.nodes[2*depth] = node{feature: -1}
	if d := tr.Depth(); d != depth {
		t.Fatalf("Depth() = %d, want %d", d, depth)
	}
}

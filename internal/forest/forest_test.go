package forest

import (
	"math"
	"testing"
	"testing/quick"

	"stac/internal/stats"
)

// synth generates a nonlinear regression problem with interactions.
func synth(n int, seed uint64) ([][]float64, []float64) {
	r := stats.NewRNG(seed)
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, 6)
		for j := range row {
			row[j] = r.Float64()
		}
		x[i] = row
		y[i] = math.Sin(3*row[0]) + row[1]*row[2]
		if row[3] > 0.5 {
			y[i] += 0.8
		}
		y[i] += r.NormFloat64() * 0.02
	}
	return x, y
}

// NumNodes returns the number of nodes in the tree.
func (t *Tree) NumNodes() int { return len(t.nodes) }

// NumTrees returns the ensemble size.
func (f *Forest) NumTrees() int { return len(f.trees) }

// Depth returns the maximum depth of the tree (a single leaf has depth 0).
// Unlimited-depth trees over adversarial data can be chains of thousands
// of nodes, so the walk keeps its own stack instead of recursing.
func (t *Tree) Depth() int {
	if len(t.nodes) == 0 {
		return 0
	}
	type frame struct {
		i     int32
		depth int
	}
	stack := []frame{{0, 0}}
	max := 0
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := &t.nodes[f.i]
		if n.feature < 0 {
			if f.depth > max {
				max = f.depth
			}
			continue
		}
		stack = append(stack, frame{f.i + 1, f.depth + 1}, frame{n.right, f.depth + 1})
	}
	return max
}

func mse(pred, truth []float64) float64 {
	s := 0.0
	for i := range pred {
		d := pred[i] - truth[i]
		s += d * d
	}
	return s / float64(len(pred))
}

func TestTreeFitsTrainingDataToLeafPurity(t *testing.T) {
	x, y := synth(200, 1)
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	tree, err := BuildTree(x, y, idx, TreeConfig{MaxFeatures: 6}, stats.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	// A fully grown tree with all features should interpolate (distinct
	// inputs, noise makes duplicates improbable).
	for i := range x {
		if math.Abs(tree.Predict(x[i])-y[i]) > 1e-9 {
			t.Fatalf("tree did not interpolate row %d: %v vs %v", i, tree.Predict(x[i]), y[i])
		}
	}
}

func TestTreeDepthLimit(t *testing.T) {
	x, y := synth(300, 3)
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	tree, err := BuildTree(x, y, idx, TreeConfig{MaxDepth: 3, MaxFeatures: 6}, stats.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	if d := tree.Depth(); d > 3 {
		t.Fatalf("depth %d exceeds limit 3", d)
	}
}

func TestTreeMinLeaf(t *testing.T) {
	x, y := synth(100, 5)
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	big, err := BuildTree(x, y, idx, TreeConfig{MinLeaf: 20, MaxFeatures: 6}, stats.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	full, err := BuildTree(x, y, idx, TreeConfig{MaxFeatures: 6}, stats.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	if big.NumNodes() >= full.NumNodes() {
		t.Fatalf("MinLeaf=20 tree (%d nodes) not smaller than full tree (%d)",
			big.NumNodes(), full.NumNodes())
	}
}

func TestForestGeneralizes(t *testing.T) {
	xTrain, yTrain := synth(600, 7)
	xTest, yTest := synth(200, 8)
	f, err := Train(xTrain, yTrain, RandomForest(60), stats.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	got := mse(f.PredictBatch(xTest), yTest)
	// Target variance is ~0.5; a working forest should be far below it.
	if got > 0.05 {
		t.Fatalf("test MSE %v too high", got)
	}
}

func TestCompletelyRandomForestWorks(t *testing.T) {
	xTrain, yTrain := synth(600, 11)
	xTest, yTest := synth(200, 12)
	f, err := Train(xTrain, yTrain, CompletelyRandomForest(60), stats.NewRNG(13))
	if err != nil {
		t.Fatal(err)
	}
	got := mse(f.PredictBatch(xTest), yTest)
	if got > 0.12 {
		t.Fatalf("completely-random forest test MSE %v too high", got)
	}
}

func TestTrainDeterministicAcrossParallelism(t *testing.T) {
	x, y := synth(200, 15)
	cfgA := RandomForest(16)
	cfgA.Workers = 1
	cfgB := RandomForest(16)
	cfgB.Workers = 8
	a, err := Train(x, y, cfgA, stats.NewRNG(17))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(x, y, cfgB, stats.NewRNG(17))
	if err != nil {
		t.Fatal(err)
	}
	probe, _ := synth(50, 18)
	for i := range probe {
		if a.Predict(probe[i]) != b.Predict(probe[i]) {
			t.Fatal("forest training depends on worker count")
		}
	}
}

func TestTrainErrors(t *testing.T) {
	x, y := synth(10, 1)
	if _, err := Train(x, y, Config{Trees: 0}, stats.NewRNG(1)); err == nil {
		t.Error("zero trees accepted")
	}
	if _, err := Train(nil, nil, RandomForest(5), stats.NewRNG(1)); err == nil {
		t.Error("empty training set accepted")
	}
	if _, err := Train(x, y[:5], RandomForest(5), stats.NewRNG(1)); err == nil {
		t.Error("mismatched shapes accepted")
	}
	idx := []int{}
	if _, err := BuildTree(x, y, idx, TreeConfig{}, stats.NewRNG(1)); err == nil {
		t.Error("empty index set accepted")
	}
}

func TestConstantTargetGivesConstantPrediction(t *testing.T) {
	x, _ := synth(50, 21)
	y := make([]float64, len(x))
	for i := range y {
		y[i] = 3.25
	}
	f, err := Train(x, y, RandomForest(10), stats.NewRNG(22))
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if f.Predict(x[i]) != 3.25 {
			t.Fatalf("prediction %v, want 3.25", f.Predict(x[i]))
		}
	}
}

func TestPredictionWithinTargetRangeProperty(t *testing.T) {
	x, y := synth(300, 23)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range y {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	f, err := Train(x, y, RandomForest(20), stats.NewRNG(24))
	if err != nil {
		t.Fatal(err)
	}
	check := func(a, b, c, d, e, g float64) bool {
		frac := func(v float64) float64 { return v - math.Floor(v) }
		p := f.Predict([]float64{frac(a), frac(b), frac(c), frac(d), frac(e), frac(g)})
		return p >= lo-1e-9 && p <= hi+1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFeatureImportanceFindsSignal(t *testing.T) {
	// Only features 0 and 3 carry signal; importances must concentrate
	// there.
	r := stats.NewRNG(41)
	x := make([][]float64, 400)
	y := make([]float64, 400)
	for i := range x {
		row := make([]float64, 8)
		for j := range row {
			row[j] = r.Float64()
		}
		x[i] = row
		y[i] = 2*row[0] - row[3]
	}
	f, err := Train(x, y, RandomForest(30), stats.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	imp := f.FeatureImportance(8)
	sum := 0.0
	for _, v := range imp {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("importances sum to %v, want 1", sum)
	}
	if imp[0]+imp[3] < 0.6 {
		t.Fatalf("signal features hold %.2f importance, want > 0.6 (imp=%v)",
			imp[0]+imp[3], imp)
	}
	for _, noise := range []int{1, 2, 4, 5, 6, 7} {
		if imp[noise] > imp[0] {
			t.Fatalf("noise feature %d (%.3f) outranks signal feature 0 (%.3f)",
				noise, imp[noise], imp[0])
		}
	}
}

func TestSampleFeaturesDistinct(t *testing.T) {
	r := stats.NewRNG(31)
	for trial := 0; trial < 200; trial++ {
		n := 2 + r.Intn(40)
		k := 1 + r.Intn(n)
		feats := sampleFeatures(n, k, r)
		if len(feats) != k {
			t.Fatalf("got %d features, want %d", len(feats), k)
		}
		seen := map[int]bool{}
		for _, f := range feats {
			if f < 0 || f >= n || seen[f] {
				t.Fatalf("bad sample %v (n=%d, k=%d)", feats, n, k)
			}
			seen[f] = true
		}
	}
}

func TestBestSplitOnFeatureSeparatesStep(t *testing.T) {
	// y is a step function of feature 0 at 0.5: best split must land there.
	x := [][]float64{{0.1}, {0.2}, {0.3}, {0.4}, {0.6}, {0.7}, {0.8}, {0.9}}
	y := []float64{0, 0, 0, 0, 1, 1, 1, 1}
	idx := []int{0, 1, 2, 3, 4, 5, 6, 7}
	thresh, _, ok := bestSplitOnFeature(x, y, idx, 0)
	if !ok {
		t.Fatal("no split found")
	}
	if thresh != 0.5 {
		t.Fatalf("threshold %v, want 0.5", thresh)
	}
}

func TestTrainDeterministicAcrossWorkerCounts(t *testing.T) {
	x, y := synth(120, 11)
	cfgs := []Config{RandomForest(12), CompletelyRandomForest(12)}
	for _, base := range cfgs {
		var ref *Forest
		for _, workers := range []int{1, 4} {
			cfg := base
			cfg.Workers = workers
			f, err := Train(x, y, cfg, stats.NewRNG(5))
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = f
				continue
			}
			for i := range x {
				if f.Predict(x[i]) != ref.Predict(x[i]) {
					t.Fatalf("row %d: prediction differs between worker counts", i)
				}
			}
		}
	}
}

func TestBuildForestTreeErrorCarriesIndex(t *testing.T) {
	// BuildTree rejects empty inputs; the per-tree wrapper must tag the
	// failure with the tree index so parallel training is debuggable.
	trees := make([]Tree, 8)
	err := buildForestTree(NewFrame(nil), nil, RandomForest(8), 5, stats.NewRNG(1), nil, trees)
	if err == nil {
		t.Fatal("expected an error for empty training data")
	}
	if want := "forest: tree 5:"; len(err.Error()) < len(want) || err.Error()[:len(want)] != want {
		t.Fatalf("error %q does not carry the failing tree index", err)
	}
}

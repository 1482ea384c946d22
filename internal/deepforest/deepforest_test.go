package deepforest

import (
	"math"
	"testing"

	"stac/internal/stats"
)

// synthMatrix builds a synthetic problem shaped like profile rows: a few
// static features followed by a rows×cols matrix whose spatial patterns
// carry the signal (so MGS has something to find).
func synthMatrix(n, staticN, rows, cols int, seed uint64) ([][]float64, []float64, MatrixSpec) {
	r := stats.NewRNG(seed)
	spec := MatrixSpec{Offset: staticN, Rows: rows, Cols: cols}
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, staticN+rows*cols)
		for j := 0; j < staticN; j++ {
			row[j] = r.Float64()
		}
		// A localised "hot block" whose intensity drives the target.
		intensity := r.Float64()
		br := r.Intn(rows - 2)
		bc := r.Intn(cols - 2)
		for a := 0; a < rows; a++ {
			for b := 0; b < cols; b++ {
				v := r.NormFloat64() * 0.1
				if a >= br && a < br+3 && b >= bc && b < bc+3 {
					v += intensity
				}
				row[staticN+a*cols+b] = v
			}
		}
		x[i] = row
		y[i] = intensity + 0.3*row[0]
	}
	return x, y, spec
}

func testConfig(spec MatrixSpec) Config {
	cfg := FastConfig(spec)
	cfg.Windows = []WindowConfig{
		{Size: 3, Stride: 2, Trees: 10},
		{Size: 5, Stride: 3, Trees: 10},
	}
	cfg.CascadeLevels = 2
	cfg.CascadeTrees = 12
	cfg.MaxMGSInstances = 3000
	return cfg
}

func TestTrainPredictLearnsSpatialSignal(t *testing.T) {
	x, y, spec := synthMatrix(300, 3, 12, 10, 1)
	xt, yt, _ := synthMatrix(100, 3, 12, 10, 2)
	m, err := Train(x, y, testConfig(spec), stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	preds := m.PredictBatch(xt)
	var sse, sst float64
	mean := 0.0
	for _, v := range yt {
		mean += v
	}
	mean /= float64(len(yt))
	for i := range yt {
		sse += (preds[i] - yt[i]) * (preds[i] - yt[i])
		sst += (yt[i] - mean) * (yt[i] - mean)
	}
	r2 := 1 - sse/sst
	t.Logf("deep forest R² = %.3f", r2)
	if r2 < 0.5 {
		t.Fatalf("deep forest failed to learn: R² = %v", r2)
	}
}

func TestMGSFeatureCount(t *testing.T) {
	x, y, spec := synthMatrix(60, 3, 12, 10, 5)
	cfg := testConfig(spec)
	m, err := Train(x, y, cfg, stats.NewRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	// Window 3 stride 2 on 12x10: rows 0,2,4,6,8 (wr=3 -> r+3<=12 so r<=9:
	// 0,2,4,6,8) = 5; cols 0,2,4,6 (c+3<=10 -> c<=7) = 4 -> 20 positions.
	// Window 5 stride 3: r in 0,3,6 (r<=7) = 3; c in 0,3 (c<=5) = 2 -> 6.
	want := 20 + 6
	if got := m.NumMGSFeatures(); got != want {
		t.Fatalf("MGS features = %d, want %d", got, want)
	}
}

func TestWindowClipping(t *testing.T) {
	// A 35×35 window on a 12×10 matrix must clip to one full-matrix
	// position, like the paper's 35×35 grain on the 29×20 profile.
	x, y, spec := synthMatrix(60, 3, 12, 10, 7)
	cfg := testConfig(spec)
	cfg.Windows = []WindowConfig{{Size: 35, Stride: 1, Trees: 8}}
	m, err := Train(x, y, cfg, stats.NewRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.NumMGSFeatures(); got != 1 {
		t.Fatalf("clipped window positions = %d, want 1", got)
	}
}

func TestConceptsShape(t *testing.T) {
	x, y, spec := synthMatrix(80, 3, 12, 10, 9)
	cfg := testConfig(spec)
	m, err := Train(x, y, cfg, stats.NewRNG(10))
	if err != nil {
		t.Fatal(err)
	}
	c := m.Concepts(x[0])
	want := cfg.CascadeLevels * cfg.ForestsPerLevel
	if len(c) != want {
		t.Fatalf("concepts length %d, want %d", len(c), want)
	}
	for i, v := range c {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("concept %d is %v", i, v)
		}
	}
}

// TestPredictAllocatesNothing pins the cold serving path's model half: a
// warm FastConfig model predicts from pooled scratch without allocating.
// Predict, Concepts and PredictBatch's workers share that scratch; each
// prediction equals the mean of its row's last concept level, and the
// batch equals the rows predicted one by one.
func TestPredictAllocatesNothing(t *testing.T) {
	x, y, spec := benchProblem(54)
	cfg := FastConfig(spec)
	m, err := Train(x, y, cfg, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	m.Predict(x[0])
	allocs := testing.AllocsPerRun(100, func() { m.Predict(x[1]) })
	if !raceEnabled && allocs != 0 {
		t.Errorf("Predict allocates %v times per call, want 0", allocs)
	}
	for i := range 4 {
		c := m.Concepts(x[i])
		last := c[len(c)-cfg.ForestsPerLevel:]
		sum := 0.0
		for _, v := range last {
			sum += v
		}
		if got, want := m.Predict(x[i]), sum/float64(len(last)); got != want {
			t.Errorf("row %d: Predict = %v, want its last concept level's mean %v", i, got, want)
		}
	}
	for i, got := range m.PredictBatch(x) {
		if want := m.Predict(x[i]); got != want {
			t.Fatalf("row %d: PredictBatch = %v, Predict = %v", i, got, want)
		}
	}
}

func TestDeterministicTraining(t *testing.T) {
	x, y, spec := synthMatrix(100, 3, 12, 10, 11)
	a, err := Train(x, y, testConfig(spec), stats.NewRNG(12))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(x, y, testConfig(spec), stats.NewRNG(12))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if a.Predict(x[i]) != b.Predict(x[i]) {
			t.Fatal("deep forest training not deterministic")
		}
	}
}

func TestConfigValidation(t *testing.T) {
	x, y, spec := synthMatrix(50, 3, 12, 10, 13)
	bad := testConfig(spec)
	bad.Matrix.Offset = 1000
	if _, err := Train(x, y, bad, stats.NewRNG(1)); err == nil {
		t.Error("out-of-range matrix accepted")
	}
	bad = testConfig(spec)
	bad.Windows = nil
	if _, err := Train(x, y, bad, stats.NewRNG(1)); err == nil {
		t.Error("no windows accepted")
	}
	bad = testConfig(spec)
	bad.KFolds = 1
	if _, err := Train(x, y, bad, stats.NewRNG(1)); err == nil {
		t.Error("KFolds=1 accepted")
	}
	bad = testConfig(spec)
	bad.CascadeLevels = 0
	if _, err := Train(x, y, bad, stats.NewRNG(1)); err == nil {
		t.Error("zero cascade levels accepted")
	}
	if _, err := Train(nil, nil, testConfig(spec), stats.NewRNG(1)); err == nil {
		t.Error("empty training set accepted")
	}
}

func TestDeepForestBeatsShallowOnSpatialTask(t *testing.T) {
	// The headline claim of representational learning: on a task whose
	// signal is spatial, the deep forest should beat a single plain
	// forest trained on raw flattened features with the same budget.
	x, y, spec := synthMatrix(400, 3, 12, 10, 15)
	xt, yt, _ := synthMatrix(150, 3, 12, 10, 16)

	m, err := Train(x, y, testConfig(spec), stats.NewRNG(17))
	if err != nil {
		t.Fatal(err)
	}
	deepMSE := 0.0
	for i := range xt {
		d := m.Predict(xt[i]) - yt[i]
		deepMSE += d * d
	}

	shallow, err := trainShallowBaseline(x, y)
	if err != nil {
		t.Fatal(err)
	}
	shallowMSE := 0.0
	for i := range xt {
		d := shallow.Predict(xt[i]) - yt[i]
		shallowMSE += d * d
	}
	t.Logf("deep MSE=%.4f shallow MSE=%.4f", deepMSE/float64(len(xt)), shallowMSE/float64(len(xt)))
	if deepMSE >= shallowMSE {
		t.Fatalf("deep forest (%v) not better than shallow forest (%v) on spatial task",
			deepMSE, shallowMSE)
	}
}

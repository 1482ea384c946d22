package gbm

import (
	"math"
	"testing"

	"stac/internal/stats"
)

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

func mse(pred, truth []float64) float64 {
	s := 0.0
	for i := range pred {
		d := pred[i] - truth[i]
		s += d * d
	}
	return s / float64(len(pred))
}

func TestGBMLearnsNonlinearFunction(t *testing.T) {
	xTrain, yTrain := synth(800, 1)
	xTest, yTest := synth(300, 2)
	cfg := DefaultConfig()
	cfg.MaxFeatures = 6
	m, err := Train(xTrain, yTrain, cfg, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	got := mse(m.PredictBatch(xTest), yTest)
	if got > 0.03 {
		t.Fatalf("test MSE %v too high", got)
	}
}

func TestMoreRoundsReduceTrainingError(t *testing.T) {
	x, y := synth(400, 5)
	var prev float64 = math.Inf(1)
	for _, rounds := range []int{5, 40, 160} {
		cfg := DefaultConfig()
		cfg.Trees = rounds
		cfg.Subsample = 1.0
		cfg.MaxFeatures = 6
		m, err := Train(x, y, cfg, stats.NewRNG(7))
		if err != nil {
			t.Fatal(err)
		}
		e := mse(m.PredictBatch(x), y)
		if e > prev {
			t.Fatalf("training MSE rose from %v to %v at %d rounds", prev, e, rounds)
		}
		prev = e
	}
}

func TestGBMDeterministic(t *testing.T) {
	x, y := synth(200, 9)
	a, err := Train(x, y, DefaultConfig(), stats.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(x, y, DefaultConfig(), stats.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if a.Predict(x[i]) != b.Predict(x[i]) {
			t.Fatal("GBM not deterministic per seed")
		}
	}
}

func TestGBMConstantTarget(t *testing.T) {
	x, _ := synth(100, 13)
	y := make([]float64, len(x))
	for i := range y {
		y[i] = 2.5
	}
	m, err := Train(x, y, DefaultConfig(), stats.NewRNG(15))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Predict(x[0]); math.Abs(got-2.5) > 1e-9 {
		t.Fatalf("constant prediction %v, want 2.5", got)
	}
}

func TestGBMConfigValidation(t *testing.T) {
	x, y := synth(20, 17)
	bad := DefaultConfig()
	bad.Trees = 0
	if _, err := Train(x, y, bad, stats.NewRNG(1)); err == nil {
		t.Error("zero trees accepted")
	}
	bad = DefaultConfig()
	bad.LearningRate = 0
	if _, err := Train(x, y, bad, stats.NewRNG(1)); err == nil {
		t.Error("zero learning rate accepted")
	}
	bad = DefaultConfig()
	bad.Subsample = 1.5
	if _, err := Train(x, y, bad, stats.NewRNG(1)); err == nil {
		t.Error("subsample > 1 accepted")
	}
	bad = DefaultConfig()
	bad.Depth = 0
	if _, err := Train(x, y, bad, stats.NewRNG(1)); err == nil {
		t.Error("zero depth accepted")
	}
	if _, err := Train(nil, nil, DefaultConfig(), stats.NewRNG(1)); err == nil {
		t.Error("empty training set accepted")
	}
}

func TestGBMNumTrees(t *testing.T) {
	x, y := synth(60, 19)
	cfg := DefaultConfig()
	cfg.Trees = 25
	m, err := Train(x, y, cfg, stats.NewRNG(21))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.trees) != 25 {
		t.Fatalf("trained %d boosting rounds, want 25", len(m.trees))
	}
}

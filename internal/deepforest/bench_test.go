package deepforest

import (
	"testing"

	"stac/internal/stats"
)

// benchProblem is shaped like the experiment pipeline's training input:
// a handful of static features followed by the 29×20 counters×queries
// profile matrix, at the experiments' dataset scale.
func benchProblem(n int) ([][]float64, []float64, MatrixSpec) {
	return synthMatrix(n, 6, 29, 20, 2022)
}

func BenchmarkTrainDeepForest(b *testing.B) {
	x, y, spec := benchProblem(54)
	cfg := FastConfig(spec)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(x, y, cfg, stats.NewRNG(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeepForestPredictBatch(b *testing.B) {
	x, y, spec := benchProblem(54)
	m, err := Train(x, y, FastConfig(spec), stats.NewRNG(7))
	if err != nil {
		b.Fatal(err)
	}
	probe, _, _ := synthMatrix(32, 6, 29, 20, 2023)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictBatch(probe)
	}
}

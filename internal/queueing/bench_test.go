package queueing

import (
	"math"
	"testing"

	"stac/internal/stats"
)

func BenchmarkSimulate(b *testing.B) {
	cfg := Config{
		Servers:   2,
		Arrival:   stats.Exponential{Rate: 1.8},
		Service:   stats.LognormalFromMeanCV(1, 0.5),
		Timeout:   1.5,
		BoostRate: 1.6,
		Queries:   4000,
		Warmup:    400,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		if _, err := Simulate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorRunSameSeed follows the Stage-3 call pattern: one
// long-lived Simulator, seed 1 on every run, and a service mean and
// timeout that change from run to run, as in the predictor's bisection
// and the surrogate's plan sweep. BenchmarkSimulate re-seeds every
// iteration and so measures only the one-shot path.
func BenchmarkSimulatorRunSameSeed(b *testing.B) {
	s := NewSimulator()
	means := []float64{0.7, 0.8, 0.9, 1}
	timeouts := []float64{0, 0.5, 1.5, 3, math.Inf(1)}
	cfg := Config{
		Servers:   2,
		Arrival:   stats.Exponential{Rate: 1.8},
		BoostRate: 1.6,
		Queries:   8000,
		Warmup:    800,
		Seed:      1,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Service = stats.LognormalFromMeanCV(means[i%len(means)], 0.5)
		cfg.Timeout = timeouts[(i/len(means))%len(timeouts)]
		if _, err := s.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

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

// sameSeedRuns returns the i-th run of the Stage-3 call pattern: seed 1
// on every run, and a service mean and timeout that change from run to
// run, as in the predictor's bisection and the surrogate's plan sweep.
func sameSeedRuns() func(i int) Config {
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
	return func(i int) Config {
		cfg.Service = stats.LognormalFromMeanCV(means[i%len(means)], 0.5)
		cfg.Timeout = timeouts[(i/len(means))%len(timeouts)]
		return cfg
	}
}

// BenchmarkSimulatorRunSameSeed follows the Stage-3 call pattern on one
// long-lived Simulator. BenchmarkSimulate re-seeds every iteration and
// so measures only the one-shot path.
func BenchmarkSimulatorRunSameSeed(b *testing.B) {
	s := NewSimulator()
	run := sameSeedRuns()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(run(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorRunParallel runs the same pattern on every
// GOMAXPROCS goroutine, each with a Simulator of its own, as the
// surrogate sweep's workers do. Its ns/op against
// BenchmarkSimulatorRunSameSeed's shows how far independent simulators
// scale; contention on shared state, such as the obs histograms, shows
// as a ratio near 1.
func BenchmarkSimulatorRunParallel(b *testing.B) {
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		s := NewSimulator()
		run := sameSeedRuns()
		for i := 0; pb.Next(); i++ {
			if _, err := s.Run(run(i)); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

package stats

import "testing"

var percentileSink float64

// BenchmarkPercentile is the Stage-3 tail query: the 95th percentile of
// one simulation's 8000 response times.
func BenchmarkPercentile(b *testing.B) {
	rng := NewRNG(1)
	ln := LognormalFromMeanCV(1, 0.5)
	xs := make([]float64, 8000)
	for i := range xs {
		xs[i] = ln.Sample(rng)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		percentileSink = Percentile(xs, 95)
	}
}

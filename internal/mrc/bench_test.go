package mrc

import (
	"testing"

	"stac/internal/workload"
)

func benchCurve(b *testing.B) *Curve {
	b.Helper()
	c, err := KernelCurve(workload.Redis(), 64, 100000, 13)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkMissRatioCum queries the cumulative-array path across a large
// capacity grid — O(1) per query after the first call builds the array.
func BenchmarkMissRatioCum(b *testing.B) {
	c := benchCurve(b)
	c.ensureCum()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		for capLines := 1; capLines <= 8192; capLines *= 2 {
			sink += c.MissRatio(capLines)
		}
	}
	_ = sink
}

// BenchmarkMissRatioScan is the pre-PR O(n) suffix-scan reference on the
// same grid; the ratio to BenchmarkMissRatioCum is the satellite's win.
func BenchmarkMissRatioScan(b *testing.B) {
	c := benchCurve(b)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		for capLines := 1; capLines <= 8192; capLines *= 2 {
			sink += c.missRatioScan(capLines)
		}
	}
	_ = sink
}

// BenchmarkExactIngest measures the full Mattson/Fenwick pass, from a
// fresh analyzer as every caller builds one.
func BenchmarkExactIngest(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a, err := NewAnalyzer(64)
		if err != nil {
			b.Fatal(err)
		}
		IngestPattern(a, workload.Redis().NewPattern(0), 50000, 13)
	}
}

package mrc

import (
	"stac/internal/stats"
	"stac/internal/workload"
)

// Ingestor is anything that can consume a stream of byte addresses:
// *Analyzer and *SampledAnalyzer both qualify, as do fan-out adapters
// that feed several analyzers at once.
type Ingestor interface {
	Access(addr uint64)
}

// IngestPattern streams n accesses of a workload pattern into dst. The
// pattern's randomness is driven by a fresh RNG with the given seed, so
// exact and sampled analyzers fed with the same (pattern factory, n,
// seed) observe the identical address stream.
func IngestPattern(dst Ingestor, pat workload.Pattern, n int, seed uint64) {
	r := stats.NewRNG(seed)
	for i := 0; i < n; i++ {
		dst.Access(pat.Next(r).Addr)
	}
}

// KernelCurve computes the exact miss-ratio curve of a kernel's solo
// address stream over the given number of accesses.
func KernelCurve(k workload.Kernel, lineSize, accesses int, seed uint64) (*Curve, error) {
	a, err := NewAnalyzer(lineSize)
	if err != nil {
		return nil, err
	}
	IngestPattern(a, k.NewPattern(0), accesses, seed)
	return a.Curve(), nil
}

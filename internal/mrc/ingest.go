package mrc

import (
	"fmt"

	"stac/internal/stats"
	"stac/internal/workload"
)

// IngestPattern streams n accesses of a workload pattern into dst. The
// pattern's randomness is driven by a fresh RNG with the given seed, so
// the same (pattern factory, n, seed) always yields the same address
// stream.
func IngestPattern(dst *Analyzer, pat workload.Pattern, n int, seed uint64) {
	r := stats.NewRNG(seed)
	for i := 0; i < n; i++ {
		dst.Access(pat.Next(r).Addr)
	}
}

// KernelCurve computes the exact miss-ratio curve of a kernel's solo
// address stream over the given number of accesses, which must be
// positive: an empty trace has miss ratio 0 at every capacity.
func KernelCurve(k workload.Kernel, lineSize, accesses int, seed uint64) (*Curve, error) {
	if accesses <= 0 {
		return nil, fmt.Errorf("mrc: %d accesses, want a positive trace length", accesses)
	}
	a, err := NewAnalyzer(lineSize)
	if err != nil {
		return nil, err
	}
	IngestPattern(a, k.NewPattern(0), accesses, seed)
	return a.Curve(), nil
}

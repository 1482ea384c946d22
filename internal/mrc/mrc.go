// Package mrc computes exact LRU miss-ratio curves in one pass over an
// access trace with Mattson's stack-distance algorithm: the stack
// distance of an access is the number of distinct lines touched since
// the previous access to the same line; a fully-associative LRU cache of
// capacity C lines misses exactly when the distance is ≥ C (or the line
// is cold). One pass therefore yields the miss ratio at *every* capacity
// simultaneously — the analysis tool behind the miss-curve intuition the
// short-term allocation policies exploit.
//
// The analyzer keeps per-line last-access timestamps and counts
// still-resident lines with a Fenwick tree over timestamps, giving
// O(log n) per access.
package mrc

import (
	"fmt"
)

// Curve is the result of a stack-distance pass. It is a point-in-time
// view: further Access calls on the analyzer that produced it
// invalidate it.
type Curve struct {
	// Hist[d] counts accesses with stack distance exactly d (in lines).
	// Distances are exact; Hist grows as needed.
	Hist []uint64
	// Cold counts first-touch accesses (infinite distance).
	Cold uint64
	// Total is the number of accesses processed.
	Total uint64

	// cum[c] is the number of misses in a fully-associative LRU cache of
	// capacity c lines: Cold plus every access at stack distance ≥ c.
	// Built lazily on the first MissRatio/At call so sweeps over large
	// capacity grids cost O(1) per query instead of an O(n) suffix scan.
	cum []uint64
}

// ensureCum builds the cumulative misses-at-capacity array when absent.
func (c *Curve) ensureCum() {
	if c.cum != nil {
		return
	}
	cum := make([]uint64, len(c.Hist)+1)
	cum[len(c.Hist)] = c.Cold
	for d := len(c.Hist) - 1; d >= 0; d-- {
		cum[d] = cum[d+1] + c.Hist[d]
	}
	c.cum = cum
}

// missesAt returns the number of misses at a capacity of c lines.
func (c *Curve) missesAt(capacityLines int) uint64 {
	c.ensureCum()
	if capacityLines < 0 {
		capacityLines = 0
	}
	if capacityLines >= len(c.cum) {
		return c.Cold
	}
	return c.cum[capacityLines]
}

// missRatioScan is the pre-cumulative O(n) reference implementation, kept
// for the regression test and benchmark that pin the cum array's win.
func (c *Curve) missRatioScan(capacityLines int) float64 {
	if c.Total == 0 {
		return 0
	}
	if capacityLines < 0 {
		capacityLines = 0
	}
	misses := c.Cold
	for d := capacityLines; d < len(c.Hist); d++ {
		misses += c.Hist[d]
	}
	return float64(misses) / float64(c.Total)
}

// MissRatio returns the fully-associative LRU miss ratio at a capacity of
// c lines: the fraction of accesses with stack distance ≥ c, plus colds.
// The first call after an ingest builds a cumulative array; subsequent
// calls are O(1). Not safe for concurrent use.
func (c *Curve) MissRatio(capacityLines int) float64 {
	if c.Total == 0 {
		return 0
	}
	return float64(c.missesAt(capacityLines)) / float64(c.Total)
}

// At evaluates the miss ratio at each of the given capacities.
func (c *Curve) At(capacities []int) []float64 {
	out := make([]float64, len(capacities))
	for i, cap := range capacities {
		out[i] = c.MissRatio(cap)
	}
	return out
}

// Analyzer runs the one-pass algorithm. The zero value is not usable;
// construct with NewAnalyzer.
type Analyzer struct {
	lineShift uint
	last      map[uint64]int // line -> timestamp of last access
	tree      []uint64       // Fenwick tree over timestamps (1-based)
	time      int
	curve     Curve
}

// NewAnalyzer creates an analyzer for the given line size (power of two).
func NewAnalyzer(lineSize int) (*Analyzer, error) {
	shift, err := lineShift(lineSize)
	if err != nil {
		return nil, err
	}
	return &Analyzer{
		lineShift: shift,
		last:      make(map[uint64]int),
		tree:      make([]uint64, 1),
	}, nil
}

// lineShift validates a power-of-two line size and returns log2(size).
func lineShift(lineSize int) (uint, error) {
	if lineSize <= 0 || lineSize&(lineSize-1) != 0 {
		return 0, fmt.Errorf("mrc: line size %d must be a positive power of two", lineSize)
	}
	shift := uint(0)
	for 1<<shift != lineSize {
		shift++
	}
	return shift, nil
}

// fenwick add at position i (1-based).
func (a *Analyzer) add(i int, delta uint64) {
	for ; i < len(a.tree); i += i & (-i) {
		a.tree[i] += delta
	}
}

// fenwick prefix sum of [1, i].
func (a *Analyzer) sum(i int) uint64 {
	var s uint64
	for ; i > 0; i -= i & (-i) {
		s += a.tree[i]
	}
	return s
}

// Access processes one byte-address access.
func (a *Analyzer) Access(addr uint64) {
	line := addr >> a.lineShift
	a.time++
	// Grow the Fenwick tree to cover the new timestamp. A new node i
	// covers the element range (i−lowbit(i), i]; with element i still
	// zero its correct initial value is prefix(i−1) − prefix(i−lowbit(i)).
	for len(a.tree) <= a.time {
		i := len(a.tree)
		low := i & (-i)
		a.tree = append(a.tree, a.sum(i-1)-a.sum(i-low))
	}
	if prev, ok := a.last[line]; ok {
		// Distance = number of distinct lines accessed after prev.
		residentAfter := a.sum(a.time-1) - a.sum(prev)
		d := int(residentAfter)
		for len(a.curve.Hist) <= d {
			a.curve.Hist = append(a.curve.Hist, 0)
		}
		a.curve.Hist[d]++
		// Remove the old stack position.
		a.add(prev, ^uint64(0)) // -1 in unsigned arithmetic
	} else {
		a.curve.Cold++
	}
	a.add(a.time, 1)
	a.last[line] = a.time
	a.curve.Total++
	a.curve.cum = nil // ingest invalidates the cumulative array
}

// Curve returns the accumulated curve. The histogram slice is shared with
// the analyzer — callers must not mutate it, and must re-fetch the curve
// after further Access calls.
func (a *Analyzer) Curve() *Curve {
	c := a.curve
	return &c
}

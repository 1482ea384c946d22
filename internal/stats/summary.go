package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs (0 for fewer than two
// samples).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It returns 0 for an empty slice and
// does not modify xs. NaNs rank below every number, as sort.Float64s
// orders them. The two ranks are found by selection on a copy of xs,
// O(n) expected, instead of by sorting it.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	a := append([]float64(nil), xs...)
	// Gather the NaNs at the front, where sort.Float64s puts them, so
	// that selection runs on a totally ordered remainder.
	nan := 0
	for i, x := range a {
		if x != x {
			a[i], a[nan] = a[nan], x
			nan++
		}
	}
	lo, hi, frac := percentileRanks(len(a), p)
	if lo < nan {
		return a[lo] // NaN, and NaN again if interpolated
	}
	selectKth(a[nan:], lo-nan, 2*bits.Len(uint(len(a))))
	if lo == hi {
		return a[lo]
	}
	// Selection left everything after lo at or above a[lo]; the next
	// rank up is the least of them.
	next := a[hi]
	for _, x := range a[hi+1:] {
		if x < next {
			next = x
		}
	}
	return a[lo]*(1-frac) + next*frac
}

// percentileRanks returns the closest ranks lo <= hi of the p-th
// percentile in a sorted sample of n, and the weight frac of rank hi in
// the interpolation; hi is lo or lo+1.
func percentileRanks(n int, p float64) (lo, hi int, frac float64) {
	if n == 1 || p <= 0 {
		return 0, 0, 0
	}
	if p >= 100 {
		return n - 1, n - 1, 0
	}
	rank := p / 100 * float64(n-1)
	lo = int(math.Floor(rank))
	hi = int(math.Ceil(rank))
	return lo, hi, rank - float64(lo)
}

func percentileSorted(sorted []float64, p float64) float64 {
	lo, hi, frac := percentileRanks(len(sorted), p)
	if lo == hi {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// selectKth reorders a, which must hold no NaN, so that a[k] is the
// value sort.Float64s would put there, with nothing greater before it
// and nothing smaller after it. It is Hoare's FIND with a median-of-three
// pivot, O(len(a)) expected. After budget partitions it hands what is
// left of the range to sort.Float64s; a budget of about 2·log2(n) bounds
// the worst case at O(n log n).
func selectKth(a []float64, k, budget int) {
	lo, hi := 0, len(a)-1
	for ; lo < hi; budget-- {
		if budget == 0 {
			sort.Float64s(a[lo : hi+1])
			return
		}
		// Order a[lo] <= a[mid] <= a[hi]: the pivot is their median, and
		// the ends stop both scans below.
		mid := lo + (hi-lo)/2
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi] < a[mid] {
			a[hi], a[mid] = a[mid], a[hi]
			if a[mid] < a[lo] {
				a[mid], a[lo] = a[lo], a[mid]
			}
		}
		pivot := a[mid]
		i, j := lo, hi
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for pivot < a[j] {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		// Now a[lo..j] <= pivot <= a[i..hi], and anything between j
		// and i equals the pivot.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// APE returns the absolute percentage error of predicted vs actual, as a
// fraction (0.11 == 11%). When actual is 0 it returns the absolute error.
func APE(actual, predicted float64) float64 {
	if actual == 0 {
		return math.Abs(predicted)
	}
	return math.Abs(predicted-actual) / math.Abs(actual)
}

// Summary holds order statistics of a sample. Build one with Summarize.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	P50    float64
	P95    float64
	P99    float64
	Max    float64
}

// Summarize computes a Summary of xs without modifying it.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return Summary{
		N:      len(sorted),
		Mean:   Mean(sorted),
		StdDev: StdDev(sorted),
		Min:    sorted[0],
		P50:    percentileSorted(sorted, 50),
		P95:    percentileSorted(sorted, 95),
		P99:    percentileSorted(sorted, 99),
		Max:    sorted[len(sorted)-1],
	}
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g p50=%.4g p95=%.4g p99=%.4g max=%.4g",
		s.N, s.Mean, s.StdDev, s.Min, s.P50, s.P95, s.P99, s.Max)
}

// Welford accumulates mean and variance online (Welford's algorithm),
// avoiding storage of the whole sample. The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Mean returns the running mean.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the running population variance.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// StdDev returns the running population standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

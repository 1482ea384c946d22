package obs

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an atomic float64 that can move in both directions (queue
// depths, occupancies, in-flight task counts). The zero value reads 0.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add atomically adds d (negative to decrement).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Load returns the current value.
func (g *Gauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram bucket layout: 64 powers of two from 2^histMinExp2 up, each
// octave split into 4 linear sub-buckets (the top two mantissa bits), so
// the relative quantile error is bounded by half a sub-bucket (~12%).
// The range covers 2^-40 (~1e-12, sub-nanosecond when values are seconds)
// through 2^24 (~1.6e7); out-of-range observations clamp into the end
// buckets.
const (
	histMinExp2   = -40
	histOctaves   = 64
	histSubBits   = 2
	histSub       = 1 << histSubBits
	histBuckets   = histOctaves * histSub
	histMinBiased = histMinExp2 + 1023 // IEEE-754 biased exponent of 2^histMinExp2
)

// Histogram is a lock-free streaming histogram over non-negative float64
// observations. Observe is allocation-free: a bucket index is derived
// from the value's floating-point representation with shifts and masks,
// then a handful of atomic updates record the sample. Construct via
// Registry.Histogram (the zero value has an incorrect min/max seed).
type Histogram struct {
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
	minBits atomic.Uint64 // float64 bits, seeded +Inf
	maxBits atomic.Uint64 // float64 bits, seeded -Inf
	buckets [histBuckets]atomic.Uint64
}

func newHistogram() *Histogram {
	h := &Histogram{}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// bucketIndex maps a positive value to its bucket.
func bucketIndex(v float64) int {
	bits := math.Float64bits(v)
	e := int(bits >> 52 & 0x7FF)
	idx := (e-histMinBiased)<<histSubBits | int(bits>>(52-histSubBits)&(histSub-1))
	if idx < 0 {
		return 0
	}
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// bucketBounds returns the [lo, hi) value range of bucket i.
func bucketBounds(i int) (lo, hi float64) {
	base := math.Ldexp(1, histMinExp2+i>>histSubBits)
	width := base / histSub
	lo = base + float64(i&(histSub-1))*width
	return lo, lo + width
}

// Observe records one sample. Negative, NaN and -Inf values are ignored;
// zero lands in the lowest bucket.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) || v < 0 {
		return
	}
	h.count.Add(1)
	h.addSum(v)
	h.lowerMin(v)
	h.raiseMax(v)
	h.buckets[observedBucket(v)].Add(1)
}

// observedBucket maps a non-negative value to its bucket; zero lands in
// the lowest.
func observedBucket(v float64) int {
	if v <= 0 {
		return 0
	}
	return bucketIndex(v)
}

// addSum adds v to the sum.
func (h *Histogram) addSum(v float64) {
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// lowerMin lowers the minimum to v if v is smaller.
func (h *Histogram) lowerMin(v float64) {
	for {
		old := h.minBits.Load()
		if v >= math.Float64frombits(old) || h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// raiseMax raises the maximum to v if v is larger.
func (h *Histogram) raiseMax(v float64) {
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) || h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// LocalHistogram accumulates observations for a Histogram on one
// goroutine, without atomics, and adds them to it in one Flush. Code that
// observes in a tight loop on many goroutines at once (one queueing
// simulator per worker) would otherwise contend on the shared
// histogram's cache lines on every observation. After a Flush the shared
// histogram holds exactly the count, buckets, min and max that
// per-value Observe calls would have given it; its sum differs only by
// floating-point rounding, since the local sum is added as one term. The
// zero value is empty and ready to use; a LocalHistogram is not safe for
// concurrent use.
type LocalHistogram struct {
	count    uint64
	sum      float64
	min, max float64
	buckets  [histBuckets]uint64
}

// Observe records one sample with Histogram.Observe's rules: negative,
// NaN and -Inf values are ignored, and zero lands in the lowest bucket.
func (l *LocalHistogram) Observe(v float64) {
	if math.IsNaN(v) || v < 0 {
		return
	}
	if l.count == 0 || v < l.min {
		l.min = v
	}
	if l.count == 0 || v > l.max {
		l.max = v
	}
	l.count++
	l.sum += v
	l.buckets[observedBucket(v)]++
}

// Flush adds the accumulated observations to h and empties l. It is safe
// to call concurrently with other Flushes and Observes on h.
func (l *LocalHistogram) Flush(h *Histogram) {
	if l.count == 0 {
		return
	}
	h.count.Add(l.count)
	h.addSum(l.sum)
	h.lowerMin(l.min)
	h.raiseMax(l.max)
	for i := range l.buckets {
		if n := l.buckets[i]; n != 0 {
			h.buckets[i].Add(n)
			l.buckets[i] = 0
		}
	}
	l.count, l.sum = 0, 0
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-quantile (q in [0,1]) from the bucketed
// distribution: the midpoint of the bucket holding the rank, clamped to
// the observed min/max so single-bucket distributions report exactly.
func (h *Histogram) Quantile(q float64) float64 {
	s := h.snap()
	return s.quantile(q)
}

// histSnap is a consistent-enough copy of a histogram's atomics, used by
// both live Quantile calls and registry snapshots.
type histSnap struct {
	count    uint64
	sum      float64
	min, max float64
	buckets  [histBuckets]uint64
}

func (h *Histogram) snap() histSnap {
	s := histSnap{
		count: h.count.Load(),
		sum:   h.Sum(),
		min:   math.Float64frombits(h.minBits.Load()),
		max:   math.Float64frombits(h.maxBits.Load()),
	}
	for i := range h.buckets {
		s.buckets[i] = h.buckets[i].Load()
	}
	return s
}

func (s *histSnap) quantile(q float64) float64 {
	if s.count == 0 {
		return 0
	}
	// The extreme quantiles are tracked exactly.
	if q <= 0 {
		return s.min
	}
	if q >= 1 {
		return s.max
	}
	rank := uint64(q * float64(s.count))
	if rank >= s.count {
		rank = s.count - 1
	}
	var cum uint64
	for i, n := range s.buckets {
		cum += n
		if cum > rank {
			lo, hi := bucketBounds(i)
			mid := lo + (hi-lo)/2
			// Clamp into the observed range so degenerate distributions
			// (all samples equal) report the exact value.
			return math.Min(math.Max(mid, s.min), s.max)
		}
	}
	return s.max
}

package mrc

import (
	"fmt"
	"math"
)

// shardsModulus is the SHARDS hash-space modulus P: a line is sampled
// when hash(line) mod P < T, giving an effective sampling rate of T/P.
// 2^24 leaves plenty of threshold resolution at the rates this package
// uses (≥ 1e-3).
const shardsModulus = 1 << 24

// SamplerConfig configures a SampledAnalyzer.
type SamplerConfig struct {
	// LineSize is the cache line size in bytes (power of two).
	LineSize int
	// Rate is the spatial sampling rate in (0, 1]: the fraction of cache
	// lines whose accesses are tracked. Defaults to 0.1.
	Rate float64
	// Seed perturbs the sampling hash so independent samples of the same
	// trace can be drawn. Zero is a valid (and deterministic) seed.
	Seed uint64
}

func (c SamplerConfig) withDefaults() SamplerConfig {
	if c.Rate == 0 {
		c.Rate = 0.1
	}
	return c
}

// SampledCurve is the weighted histogram a SHARDS pass produces. Each
// sampled access contributes weight 1/rate (the number of raw accesses it
// stands for), so the weighted counts estimate the exact curve's counts.
type SampledCurve struct {
	// Hist[d] is the estimated number of accesses with (rescaled) stack
	// distance d.
	Hist []float64
	// Cold is the estimated number of first-touch accesses.
	Cold float64
	// Weight is the total estimated access count (sum of sample weights).
	Weight float64
	// Raw is the true number of accesses observed, sampled or not.
	Raw uint64
	// Sampled is the number of accesses that passed the spatial filter.
	Sampled uint64

	cum []float64
}

// ensureCum mirrors Curve.ensureCum for weighted counts.
func (c *SampledCurve) ensureCum() {
	if c.cum != nil {
		return
	}
	cum := make([]float64, len(c.Hist)+1)
	cum[len(c.Hist)] = c.Cold
	for d := len(c.Hist) - 1; d >= 0; d-- {
		cum[d] = cum[d+1] + c.Hist[d]
	}
	c.cum = cum
}

// MissRatio returns the estimated fully-associative LRU miss ratio at a
// capacity of c lines. The estimator is self-normalized: weighted misses
// over total sample weight. Normalizing by the weight rather than the raw
// access count keeps the estimate exact when the sampled lines' access
// frequencies deviate from the population mean (a stride scan whose
// sampled-line count fluctuates binomially still yields the true ratio),
// which on these kernels beats the SHARDS-adj first-bucket correction.
func (c *SampledCurve) MissRatio(capacityLines int) float64 {
	if c.Weight <= 0 {
		return 0
	}
	c.ensureCum()
	if capacityLines < 0 {
		capacityLines = 0
	}
	var misses float64
	if capacityLines >= len(c.cum) {
		misses = c.Cold
	} else {
		misses = c.cum[capacityLines]
	}
	ratio := misses / c.Weight
	if ratio > 1 {
		ratio = 1
	}
	return ratio
}

// At evaluates the estimated miss ratio at each of the given capacities.
func (c *SampledCurve) At(capacities []int) []float64 {
	out := make([]float64, len(capacities))
	for i, cap := range capacities {
		out[i] = c.MissRatio(cap)
	}
	return out
}

// SampledAnalyzer approximates the exact stack-distance curve with SHARDS
// spatial sampling: only lines whose hash falls under a threshold are
// tracked, and measured distances are rescaled by the inverse sampling
// rate. Cost per access is O(1) for unsampled lines and O(log s) for
// sampled ones, where s is the tracked-line count — a small constant
// fraction of the exact analyzer's footprint and time.
type SampledAnalyzer struct {
	cfg       SamplerConfig
	lineShift uint
	threshold uint64 // T: sample iff hash mod P < T

	last map[uint64]int // sampled line -> timestamp of last access
	tree []uint64       // Fenwick tree over sampled timestamps
	time int

	curve SampledCurve
}

// NewSampled creates a SHARDS analyzer.
func NewSampled(cfg SamplerConfig) (*SampledAnalyzer, error) {
	cfg = cfg.withDefaults()
	shift, err := lineShift(cfg.LineSize)
	if err != nil {
		return nil, err
	}
	if cfg.Rate <= 0 || cfg.Rate > 1 {
		return nil, fmt.Errorf("mrc: sampling rate %v outside (0, 1]", cfg.Rate)
	}
	t := uint64(math.Round(cfg.Rate * shardsModulus))
	if t == 0 {
		t = 1
	}
	return &SampledAnalyzer{
		cfg:       cfg,
		lineShift: shift,
		threshold: t,
		last:      make(map[uint64]int),
		tree:      make([]uint64, 1),
	}, nil
}

// Reset returns the analyzer to its initial state while retaining
// allocated storage, mirroring Analyzer.Reset.
func (s *SampledAnalyzer) Reset() {
	clear(s.last)
	s.tree = s.tree[:1]
	s.tree[0] = 0
	s.time = 0
	s.curve = SampledCurve{Hist: s.curve.Hist[:0]}
}

// sampleHash is a splitmix64-style finalizer over the line number — the
// spatial filter must depend only on the line, never on access order.
func sampleHash(line, seed uint64) uint64 {
	x := line + 0x9e3779b97f4a7c15 + seed
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (s *SampledAnalyzer) add(i int, delta uint64) {
	for ; i < len(s.tree); i += i & (-i) {
		s.tree[i] += delta
	}
}

func (s *SampledAnalyzer) sum(i int) uint64 {
	var v uint64
	for ; i > 0; i -= i & (-i) {
		v += s.tree[i]
	}
	return v
}

// Access processes one byte-address access. Unsampled accesses cost a
// hash and two increments.
func (s *SampledAnalyzer) Access(addr uint64) {
	s.curve.Raw++
	s.curve.cum = nil
	line := addr >> s.lineShift
	if sampleHash(line, s.cfg.Seed)&(shardsModulus-1) >= s.threshold {
		return
	}
	weight := shardsModulus / float64(s.threshold) // 1/rate
	s.curve.Sampled++
	s.curve.Weight += weight

	s.time++
	for len(s.tree) <= s.time {
		i := len(s.tree)
		low := i & (-i)
		s.tree = append(s.tree, s.sum(i-1)-s.sum(i-low))
	}
	if prev, ok := s.last[line]; ok {
		residentAfter := s.sum(s.time-1) - s.sum(prev)
		// Rescale the in-sample distance to the full trace: d/rate.
		d := int(math.Round(float64(residentAfter) * weight))
		for len(s.curve.Hist) <= d {
			s.curve.Hist = append(s.curve.Hist, 0)
		}
		s.curve.Hist[d] += weight
		s.add(prev, ^uint64(0))
	} else {
		s.curve.Cold += weight
	}
	s.add(s.time, 1)
	s.last[line] = s.time
}

// Curve returns the accumulated estimate. Like Analyzer.Curve, the
// result shares storage with the analyzer: re-fetch it after further
// Access or Reset calls.
func (s *SampledAnalyzer) Curve() *SampledCurve {
	c := s.curve
	return &c
}

// SampledSet fans one address stream out to several independently seeded
// SHARDS analyzers and averages their curves. Spatial sampling is
// high-variance when a few lines carry a large share of all accesses
// (small Zipf working sets): whether a heavy hitter falls under the hash
// threshold swings the estimate by its whole access share. Averaging k
// seeds leaves the estimator unbiased and cuts that variance by ~1/√k at
// k× the sampled-access cost, which is still far below the exact pass
// when rate·k < 1.
type SampledSet struct {
	analyzers []*SampledAnalyzer
}

// NewSampledSet creates seeds analyzers configured like cfg but with
// distinct sampling hashes derived from cfg.Seed.
func NewSampledSet(cfg SamplerConfig, seeds int) (*SampledSet, error) {
	if seeds <= 0 {
		return nil, fmt.Errorf("mrc: SampledSet needs at least one seed, got %d", seeds)
	}
	s := &SampledSet{analyzers: make([]*SampledAnalyzer, seeds)}
	for i := range s.analyzers {
		c := cfg
		c.Seed = sampleHash(uint64(i), cfg.Seed)
		a, err := NewSampled(c)
		if err != nil {
			return nil, err
		}
		s.analyzers[i] = a
	}
	return s, nil
}

// Access feeds one byte-address access to every member analyzer.
func (s *SampledSet) Access(addr uint64) {
	for _, a := range s.analyzers {
		a.Access(addr)
	}
}

// Reset resets every member analyzer.
func (s *SampledSet) Reset() {
	for _, a := range s.analyzers {
		a.Reset()
	}
}

// Curve returns the seed-averaged estimate. Like SampledAnalyzer.Curve,
// re-fetch after further Access or Reset calls.
func (s *SampledSet) Curve() *AveragedCurve {
	c := &AveragedCurve{members: make([]*SampledCurve, len(s.analyzers))}
	for i, a := range s.analyzers {
		c.members[i] = a.Curve()
	}
	return c
}

// AveragedCurve is the mean of several independently sampled curves.
type AveragedCurve struct {
	members []*SampledCurve
}

// MissRatio returns the mean of the member estimates at the capacity.
func (c *AveragedCurve) MissRatio(capacityLines int) float64 {
	if len(c.members) == 0 {
		return 0
	}
	var v float64
	for _, m := range c.members {
		v += m.MissRatio(capacityLines)
	}
	return v / float64(len(c.members))
}

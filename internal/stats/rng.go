// Package stats provides the deterministic random-number machinery,
// probability distributions and summary statistics used throughout the
// short-term cache allocation (STAC) reproduction.
//
// Every stochastic component in this repository draws from an *RNG created
// with an explicit seed, so whole experiments are reproducible bit-for-bit.
package stats

import "math"

// RNG is a small, fast, seedable pseudo-random generator based on
// xoshiro256**. It is deliberately independent of math/rand so that stream
// splitting (Split) is cheap and the generator state is trivially
// serializable.
type RNG struct {
	s [4]uint64
}

// splitmix64 is used to seed the xoshiro state from a single word, per the
// reference implementation's recommendation.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator seeded from the given value. Two generators
// built from the same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	// Avoid the all-zero state (cannot occur from splitmix64 in practice,
	// but guard anyway).
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

// Reseed resets the generator in place to the exact state NewRNG(seed)
// would construct, so long-lived components (pooled simulators, reusable
// machines) can restart their stream without allocating a new generator.
func (r *RNG) Reseed(seed uint64) {
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Split derives an independent generator from this one. The child stream is
// decorrelated from the parent by reseeding through splitmix64.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}

// SplitN derives n independent generators in a single sequential pass.
// It is the fan-out primitive for deterministic parallelism: derive one
// child per task *before* dispatching work to a pool, then hand child i
// to task i. The children are identical to n successive Split calls, so
// results do not depend on scheduling or worker count.
func (r *RNG) SplitN(n int) []*RNG {
	out := make([]*RNG, n)
	for i := range out {
		out[i] = r.Split()
	}
	return out
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes the first n elements using the provided swap function.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// ExpFloat64 returns a unit-rate exponential variate by inversion,
// -log(1-U). 1-Float64() is in (0,1], avoiding Log(0).
func (r *RNG) ExpFloat64() float64 { return -math.Log(1 - r.Float64()) }

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

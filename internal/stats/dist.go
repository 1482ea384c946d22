package stats

import "math"

// Dist is a one-dimensional probability distribution that can be sampled
// with an explicit RNG. Implementations must be safe for concurrent use as
// long as each goroutine supplies its own RNG.
type Dist interface {
	// Sample draws one value.
	Sample(r *RNG) float64
	// Mean returns the distribution mean.
	Mean() float64
}

// Standard names a parameter-free variate that a distribution's samples
// are a transform of. A distribution with methods Std() Standard and
// Transform(v float64) float64 defines Sample(r) as
// Transform(Std().Draw(r)), so the two agree bit for bit. The standard
// variates an RNG yields depend only on its seed and on the sequence of
// kinds drawn, never on distribution parameters, so a caller that
// repeats a simulation with one seed and new parameters can draw the
// standard stream once and transform it again (queueing.Simulator does).
type Standard uint8

const (
	// StdExponential is a unit-rate exponential, RNG.ExpFloat64.
	StdExponential Standard = iota + 1
	// StdNormal is a standard normal, RNG.NormFloat64.
	StdNormal
)

// Draw returns one standard variate of kind k.
func (k Standard) Draw(r *RNG) float64 {
	switch k {
	case StdExponential:
		return r.ExpFloat64()
	case StdNormal:
		return r.NormFloat64()
	}
	panic("stats: unknown standard variate")
}

// Exponential is an exponential distribution with the given rate λ.
// Its mean is 1/λ. Used for query inter-arrival times (the paper uses
// exponential inter-arrivals, §5.2).
type Exponential struct {
	Rate float64
}

// Sample draws an exponential variate by inversion.
func (e Exponential) Sample(r *RNG) float64 { return e.Transform(r.ExpFloat64()) }

// Std reports that Sample transforms a unit-rate exponential.
func (Exponential) Std() Standard { return StdExponential }

// Transform scales a unit-rate exponential variate to rate Rate.
func (e Exponential) Transform(v float64) float64 { return v / e.Rate }

// Mean returns 1/Rate.
func (e Exponential) Mean() float64 { return 1 / e.Rate }

// Lognormal is a lognormal distribution parameterised by the mean Mu and
// standard deviation Sigma of the underlying normal. Service-time demands
// with occasional heavy executions are modelled as lognormals.
type Lognormal struct {
	Mu    float64
	Sigma float64
}

// Sample draws a lognormal variate.
func (l Lognormal) Sample(r *RNG) float64 { return l.Transform(r.NormFloat64()) }

// Std reports that Sample transforms a standard normal.
func (Lognormal) Std() Standard { return StdNormal }

// Transform maps a standard normal variate z to exp(Mu + Sigma·z).
func (l Lognormal) Transform(z float64) float64 { return math.Exp(l.Mu + l.Sigma*z) }

// Mean returns exp(Mu + Sigma^2/2).
func (l Lognormal) Mean() float64 { return math.Exp(l.Mu + l.Sigma*l.Sigma/2) }

// LognormalFromMeanCV builds a lognormal with the requested mean and
// coefficient of variation (stddev/mean).
func LognormalFromMeanCV(mean, cv float64) Lognormal {
	if mean <= 0 {
		panic("stats: lognormal mean must be positive")
	}
	s2 := math.Log(1 + cv*cv)
	return Lognormal{
		Mu:    math.Log(mean) - s2/2,
		Sigma: math.Sqrt(s2),
	}
}

// Pareto is a bounded-below Pareto (power law) distribution with scale Xm
// and shape Alpha (> 1 for a finite mean). Heavy-tailed service demands in
// the Social workload use it.
type Pareto struct {
	Xm    float64
	Alpha float64
}

// Sample draws a Pareto variate by inversion.
func (p Pareto) Sample(r *RNG) float64 {
	return p.Xm / math.Pow(1-r.Float64(), 1/p.Alpha)
}

// Mean returns α·xm/(α−1); it panics when Alpha <= 1 (infinite mean).
func (p Pareto) Mean() float64 {
	if p.Alpha <= 1 {
		panic("stats: Pareto mean undefined for Alpha <= 1")
	}
	return p.Alpha * p.Xm / (p.Alpha - 1)
}

// Deterministic always returns Value. Useful in tests and for closed-form
// queueing validation (M/D/1).
type Deterministic struct {
	Value float64
}

// Sample returns Value.
func (d Deterministic) Sample(*RNG) float64 { return d.Value }

// Mean returns Value.
func (d Deterministic) Mean() float64 { return d.Value }

// Uniform is a uniform distribution on [Lo, Hi).
type Uniform struct {
	Lo, Hi float64
}

// Sample draws a uniform variate.
func (u Uniform) Sample(r *RNG) float64 { return u.Lo + (u.Hi-u.Lo)*r.Float64() }

// Mean returns the midpoint.
func (u Uniform) Mean() float64 { return (u.Lo + u.Hi) / 2 }

// Zipf draws integers in [0, N) with probability proportional to
// 1/(rank+1)^S. It is used by the Redis/YCSB-like key-access generator.
// The zero value is unusable; construct with NewZipf.
type Zipf struct {
	n   int
	cdf []float64
	// guide[k] is the smallest index i with cdf[i] >= k/n: a guide table
	// (Chen & Asau) turning each draw into an O(1) expected lookup plus a
	// short linear scan, instead of a log2(n)-probe binary search. The
	// result is a pure function of u and the CDF — the selected rank is
	// identical to what the binary search returned, so replacing the
	// search does not perturb any downstream random stream.
	guide []int32
}

// NewZipf precomputes the CDF for an N-element Zipf distribution with
// exponent s >= 0 (s = 0 is uniform).
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("stats: Zipf needs n > 0")
	}
	z := &Zipf{n: n, cdf: make([]float64, n), guide: make([]int32, n)}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = sum
	}
	inv := 1 / sum
	for i := range z.cdf {
		z.cdf[i] *= inv
	}
	i := 0
	for k := 0; k < n; k++ {
		t := float64(k) / float64(n)
		for i < n-1 && z.cdf[i] < t {
			i++
		}
		z.guide[k] = int32(i)
	}
	return z
}

// Sample draws a rank in [0, N): the smallest index whose CDF value
// reaches the uniform draw (capped at n-1), located via the guide table.
func (z *Zipf) Sample(r *RNG) int {
	u := r.Float64()
	k := int(u * float64(z.n))
	if k >= z.n {
		k = z.n - 1
	}
	i := int(z.guide[k])
	for i < z.n-1 && z.cdf[i] < u {
		i++
	}
	// int(u*n) can round up past floor(u*n), making the guide entry
	// overshoot by one bucket; walk back to the minimal index so the
	// result matches the old binary search bit for bit.
	for i > 0 && z.cdf[i-1] >= u {
		i--
	}
	return i
}

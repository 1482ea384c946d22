package profile

import (
	"stac/internal/cluster"
	"stac/internal/par"
	"stac/internal/stats"
)

// Point is one runtime-condition setting for a collocated pair: the
// dimensions the profiler samples from Table 2's space (loads 25–95 % of
// service rate, timeouts 0–600 % of service time).
type Point struct {
	LoadA, LoadB       float64
	TimeoutA, TimeoutB float64
}

// Bounds of the Table 2 condition space.
const (
	MinLoad    = 0.25
	MaxLoad    = 0.95
	MinTimeout = 0.0
	MaxTimeout = 6.0
)

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func (p Point) clamped() Point {
	return Point{
		LoadA:    clamp(p.LoadA, MinLoad, MaxLoad),
		LoadB:    clamp(p.LoadB, MinLoad, MaxLoad),
		TimeoutA: clamp(p.TimeoutA, MinTimeout, MaxTimeout),
		TimeoutB: clamp(p.TimeoutB, MinTimeout, MaxTimeout),
	}
}

func (p Point) vector() []float64 {
	return []float64{p.LoadA, p.LoadB, p.TimeoutA, p.TimeoutB}
}

func pointFromVector(v []float64) Point {
	return Point{LoadA: v[0], LoadB: v[1], TimeoutA: v[2], TimeoutB: v[3]}.clamped()
}

// UniformPoints draws n conditions uniformly at random from the Table 2
// space — the paper's first implementation, which "over sampled some
// settings".
func UniformPoints(n int, rng *stats.RNG) []Point {
	out := make([]Point, n)
	for i := range out {
		out[i] = Point{
			LoadA:    stats.Uniform{Lo: MinLoad, Hi: MaxLoad}.Sample(rng),
			LoadB:    stats.Uniform{Lo: MinLoad, Hi: MaxLoad}.Sample(rng),
			TimeoutA: stats.Uniform{Lo: MinTimeout, Hi: MaxTimeout}.Sample(rng),
			TimeoutB: stats.Uniform{Lo: MinTimeout, Hi: MaxTimeout}.Sample(rng),
		}
	}
	return out
}

// StratifiedPoints implements §4's stratified sampler: draw nSeeds random
// conditions, evaluate each (the caller's eval typically runs a short
// profiling experiment and returns measured effective allocation), cluster
// the seeds by their outcome into k strata, then generate the remaining
// points near the centroid *settings* of each cluster — covering the
// distinct behavioural regimes instead of oversampling any one.
//
// The seed-probe evaluations fan out over up to workers goroutines, so
// eval must be safe for concurrent calls unless workers is 1. All rng
// consumption (seed draws, clustering, centroid jitter) happens on the
// calling goroutine, so the returned points are identical for any worker
// count.
func StratifiedPoints(nTotal, nSeeds, k int, eval func(Point) float64, rng *stats.RNG, workers int) []Point {
	if nSeeds > nTotal {
		nSeeds = nTotal
	}
	seeds := UniformPoints(nSeeds, rng)
	if nSeeds >= nTotal {
		return seeds
	}

	// Cluster seeds by measured effective allocation. The probes are
	// short profiling runs — the expensive part of sampling — and are
	// independent of one another.
	outcomes := make([][]float64, len(seeds))
	_ = par.ForEach(workers, len(seeds), func(i int) error {
		outcomes[i] = []float64{eval(seeds[i])}
		return nil
	})
	res, err := cluster.KMeans(outcomes, k, 25, rng)
	if err != nil {
		return append(seeds, UniformPoints(nTotal-nSeeds, rng)...)
	}

	// Centroid settings per cluster (mean of member settings).
	dims := 4
	sums := make([][]float64, k)
	counts := make([]int, k)
	for c := range sums {
		sums[c] = make([]float64, dims)
	}
	for i, p := range seeds {
		c := res.Assign[i]
		counts[c]++
		for j, v := range p.vector() {
			sums[c][j] += v
		}
	}

	out := append([]Point(nil), seeds...)
	// Round-robin across non-empty clusters, jittering around centroids.
	// The jitter is wide: the samples must still *cover* the condition
	// space (the models' neighbour-based input reconstruction needs
	// coverage), while the centroids bias density toward the behavioural
	// regimes the seed outcomes revealed.
	spread := []float64{0.25, 0.25, 1.8, 1.8} // per-dimension jitter scale
	c := 0
	for len(out) < nTotal {
		for counts[c%k] == 0 {
			c++
		}
		ci := c % k
		centroid := make([]float64, dims)
		for j := range centroid {
			centroid[j] = sums[ci][j]/float64(counts[ci]) + rng.NormFloat64()*spread[j]
		}
		out = append(out, pointFromVector(centroid))
		c++
	}
	return out
}

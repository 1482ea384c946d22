package surrogate

import (
	"fmt"
	"math"

	"stac/internal/cluster"
	"stac/internal/mrc"
	"stac/internal/stats"
	"stac/internal/workload"
)

// IntervalConfig configures representative-interval selection.
type IntervalConfig struct {
	// Windows is the number of equal-length slices the trace is cut into
	// (default 64).
	Windows int
	// K is the number of clusters / representative slices (default 8).
	K int
	// LineSize is the cache line size (default 64).
	LineSize int
	// Rate is the SHARDS sampling rate used for the per-window feature
	// curves (default 0.25 — windows are short, so feature variance
	// matters more than speed).
	Rate float64
	// Seed drives sampling and clustering.
	Seed uint64
}

func (c IntervalConfig) defaults() IntervalConfig {
	if c.Windows == 0 {
		c.Windows = 64
	}
	if c.K == 0 {
		c.K = 8
	}
	if c.LineSize == 0 {
		c.LineSize = 64
	}
	if c.Rate == 0 {
		c.Rate = 0.25
	}
	return c
}

// Interval is one representative slice of an access trace: the access
// index range [Start, End) and the fraction of the full trace it stands
// for (its cluster's share of all windows).
type Interval struct {
	Start, End int
	Weight     float64
}

// Intervals is a representative-interval selection: replaying just the
// Spans (weighting results by Weight) approximates replaying the whole
// trace, in the spirit of SimPoint-style interval sampling (Bueno et
// al., "Improving the Representativeness of Simulation Intervals").
type Intervals struct {
	Spans []Interval
	// curves[i] is the sampled miss-ratio curve of Spans[i]'s window.
	curves []*mrc.SampledCurve
}

// featureCaps are the capacities (in lines) whose miss ratios form a
// window's cluster-feature vector, spanning L1 size to several LLC ways.
var featureCaps = []int{32, 128, 512, 2048, 8192}

// SelectIntervals cuts the pattern's first n accesses into equal
// windows, clusters the windows by their miss-ratio feature vectors
// (k-means) and returns one representative window per cluster, weighted
// by cluster size. The per-window curves come from ONE continuous SHARDS
// pass over the whole trace: each window's curve is the difference of
// the accumulated histogram at its boundaries, so an access that reuses
// a line last touched in an earlier window contributes its true
// full-trace stack distance to its own window (a Reset-per-window
// analyzer would misread all cross-window reuse as cold misses). The
// window curves therefore partition the full sampled curve exactly.
func SelectIntervals(pat workload.Pattern, n int, cfg IntervalConfig) (*Intervals, error) {
	cfg = cfg.defaults()
	if n < cfg.Windows {
		return nil, fmt.Errorf("surrogate: %d accesses cannot fill %d windows", n, cfg.Windows)
	}
	a, err := mrc.NewSampled(mrc.SamplerConfig{LineSize: cfg.LineSize, Rate: cfg.Rate, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	winLen := n / cfg.Windows
	r := stats.NewRNG(13)
	features := make([][]float64, cfg.Windows)
	curves := make([]*mrc.SampledCurve, cfg.Windows)
	var prevHist []float64
	var prevCold, prevWeight float64
	for w := 0; w < cfg.Windows; w++ {
		for i := 0; i < winLen; i++ {
			a.Access(pat.Next(r).Addr)
		}
		snap := a.Curve()
		// The window's own histogram: accumulated minus the previous
		// boundary snapshot.
		wc := &mrc.SampledCurve{
			Hist:   make([]float64, len(snap.Hist)),
			Cold:   snap.Cold - prevCold,
			Weight: snap.Weight - prevWeight,
		}
		copy(wc.Hist, snap.Hist)
		for d := range prevHist {
			wc.Hist[d] -= prevHist[d]
		}
		prevHist = append(prevHist[:0], snap.Hist...)
		prevCold, prevWeight = snap.Cold, snap.Weight
		curves[w] = wc
		f := wc.At(featureCaps)
		f = append(f, wc.Cold/math.Max(wc.Weight, 1))
		features[w] = f
	}

	res, err := cluster.KMeans(features, cfg.K, 25, stats.NewRNG(cfg.Seed+1))
	if err != nil {
		return nil, err
	}

	// Representative per cluster: the window closest to the centroid
	// (lowest index on ties, so selection is deterministic).
	k := len(res.Centroids)
	repIdx := make([]int, k)
	repDist := make([]float64, k)
	counts := make([]int, k)
	for i := range repIdx {
		repIdx[i] = -1
		repDist[i] = math.Inf(1)
	}
	for w, f := range features {
		c := res.Assign[w]
		counts[c]++
		d := 0.0
		for j := range f {
			dd := f[j] - res.Centroids[c][j]
			d += dd * dd
		}
		if d < repDist[c] {
			repDist[c] = d
			repIdx[c] = w
		}
	}

	iv := &Intervals{}
	for c := 0; c < k; c++ {
		if repIdx[c] < 0 {
			continue // empty cluster
		}
		w := repIdx[c]
		iv.Spans = append(iv.Spans, Interval{
			Start:  w * winLen,
			End:    (w + 1) * winLen,
			Weight: float64(counts[c]) / float64(cfg.Windows),
		})
		iv.curves = append(iv.curves, curves[w])
	}
	return iv, nil
}

// MissRatio estimates the full trace's miss ratio at a capacity as the
// cluster-share-weighted miss ratio of the representative windows. The
// window curves carry full-trace stack distances (see SelectIntervals),
// so averaging ALL windows by weight would reproduce the full sampled
// curve exactly; using one representative per cluster approximates that
// sum with K terms. Satisfies mrc.CapacityCurve.
func (iv *Intervals) MissRatio(capacityLines int) float64 {
	var v, w float64
	for i, s := range iv.Spans {
		v += s.Weight * iv.curves[i].MissRatio(capacityLines)
		w += s.Weight
	}
	if w == 0 {
		return 0
	}
	return v / w
}

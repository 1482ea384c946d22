package experiments

import (
	"fmt"
	"math"

	"stac/internal/cluster"
	"stac/internal/counters"
	"stac/internal/profile"
	"stac/internal/stats"
)

func init() {
	register("insight", Insight)
}

// Insight reproduces the §5.2 analysis: clustering profile rows by the
// deep forest's learned *concepts* reveals the interaction between
// arrival rate, service time and timeout that drives response time under
// short-term allocation — an interaction invisible when clustering on
// raw hardware counters alone.
//
// The check: for each clustering, measure how well cluster membership
// aligns with an interaction score (load × capped timeout, the condition
// product the paper identifies). Alignment is the variance of the score
// explained by cluster assignment (an ANOVA R²).
func Insight(opts Options) (*Report, error) {
	opts = opts.defaults()
	nPoints, queries := datasetScale(opts)
	ds, err := collectPair(pairSpec{"redis", "social"}, nPoints, queries, 0, opts.Seed+11000, opts.Workers)
	if err != nil {
		return nil, err
	}
	train, test := ds.SplitByCondition(0.6, opts.Seed+11001)
	_, model, _, err := trainPipeline(train, opts, opts.Seed+11002)
	if err != nil {
		return nil, err
	}

	// Concept-space points vs raw-counter points for the same rows.
	conceptPts := make([][]float64, test.Len())
	counterPts := make([][]float64, test.Len())
	score := make([]float64, test.Len())
	const off, q = profile.MatrixOffset, profile.QueriesPerRow
	for i, r := range test.Rows {
		conceptPts[i] = model.Concepts(r.Features)
		// Aggregate counters (mean over the window's queries, normalised
		// per counter below).
		agg := make([]float64, counters.NumCounters)
		for c := 0; c < counters.NumCounters; c++ {
			s := 0.0
			for j := 0; j < q; j++ {
				s += r.Features[off+c*q+j]
			}
			agg[c] = s / float64(q)
		}
		counterPts[i] = agg
		// The interaction the paper highlights: arrival rate × timeout
		// (relative to service time) shapes when boosts trigger.
		score[i] = r.Features[profile.FeatLoad] * r.Features[profile.FeatTimeout]
	}
	normalise(conceptPts)
	normalise(counterPts)

	k := 4
	rng := stats.NewRNG(opts.Seed + 11003)
	conceptRes, err := cluster.KMeans(conceptPts, k, 40, rng)
	if err != nil {
		return nil, err
	}
	counterRes, err := cluster.KMeans(counterPts, k, 40, rng)
	if err != nil {
		return nil, err
	}

	conceptR2 := anovaR2(score, conceptRes.Assign, k)
	counterR2 := anovaR2(score, counterRes.Assign, k)
	conceptSil := cluster.Silhouette(conceptPts, conceptRes.Assign, k)
	counterSil := cluster.Silhouette(counterPts, counterRes.Assign, k)

	rep := &Report{
		ID:      "insight",
		Title:   "Clustering workload behaviour: learned concepts vs raw counters",
		Columns: []string{"feature space", "interaction R² (load×timeout)", "silhouette"},
		Rows: [][]string{
			{"deep-forest concepts", fmt.Sprintf("%.3f", conceptR2), fmt.Sprintf("%.3f", conceptSil)},
			{"raw cache counters", fmt.Sprintf("%.3f", counterR2), fmt.Sprintf("%.3f", counterSil)},
		},
	}
	rep.Notes = append(rep.Notes,
		"higher interaction R²: cluster membership tracks the arrival-rate x timeout interaction",
		"paper: clustering on hardware counters alone did not reveal the interaction")
	return rep, nil
}

// normalise standardises each column in place (zero mean, unit variance).
func normalise(pts [][]float64) {
	if len(pts) == 0 {
		return
	}
	d := len(pts[0])
	for j := 0; j < d; j++ {
		var w stats.Welford
		for _, p := range pts {
			w.Add(p[j])
		}
		sd := w.StdDev()
		if sd < 1e-12 {
			sd = 1
		}
		m := w.Mean()
		for _, p := range pts {
			p[j] = (p[j] - m) / sd
		}
	}
}

// anovaR2 returns the fraction of score variance explained by cluster
// assignment: 1 − SS_within/SS_total.
func anovaR2(score []float64, assign []int, k int) float64 {
	total := stats.Variance(score) * float64(len(score))
	if total <= 0 {
		return 0
	}
	sums := make([]float64, k)
	counts := make([]float64, k)
	for i, s := range score {
		sums[assign[i]] += s
		counts[assign[i]]++
	}
	within := 0.0
	for i, s := range score {
		c := assign[i]
		mean := sums[c] / counts[c]
		within += (s - mean) * (s - mean)
	}
	r2 := 1 - within/total
	if math.IsNaN(r2) {
		return 0
	}
	return r2
}

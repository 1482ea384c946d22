package experiments

import (
	"fmt"
	"math"
	"time"

	"stac/internal/core"
	"stac/internal/counters"
	"stac/internal/neural"
	"stac/internal/par"
	"stac/internal/profile"
	"stac/internal/stats"
)

func init() {
	register("fig5", Fig5)
}

// Fig5 reproduces Figure 5: repeated trainings of the deep forest and the
// CNN on the same profile data under different random seeds, reporting
// training accuracy, validation accuracy and training time — with the
// min/max spread that motivates the paper's choice of deep forests
// ("deep forests reliably provide low error; the worst training results
// for neural networks can be twice as inaccurate").
func Fig5(opts Options) (*Report, error) {
	opts = opts.defaults()
	nPoints, queries := datasetScale(opts)
	const reps = 8

	// Same pair, scale and seed as fig6's first collocation, so the two
	// figures share one dataset-cache entry.
	ds, err := collectPair(pairSpec{"redis", "bfs"}, nPoints, queries, 0, opts.Seed, opts.Workers)
	if err != nil {
		return nil, err
	}
	train, val := ds.SplitByCondition(0.6, opts.Seed+1)

	dfSamples := make([]trainSample, reps)
	cnnSamples := make([]trainSample, reps)

	// Accuracy metric: 1 − median APE of EA prediction (higher is better,
	// matching the paper's accuracy axis).
	accuracy := func(model interface{ Predict([]float64) float64 }, feats [][]float64, ys []float64) float64 {
		errs := make([]float64, len(ys))
		for i := range ys {
			errs[i] = stats.APE(ys[i], model.Predict(feats[i]))
		}
		a := 1 - stats.Median(errs)
		// A diverged model (NaN/Inf predictions) scores zero accuracy —
		// CNN divergence is precisely the instability Figure 5 documents.
		if a < 0 || math.IsNaN(a) || math.IsInf(a, 0) {
			a = 0
		}
		return a
	}

	cnnCfg := neural.DefaultConfig(neural.MatrixSpec{
		Offset: profile.MatrixOffset, Rows: counters.NumCounters, Cols: profile.QueriesPerRow,
	})
	cnnCfg.Epochs = 30

	// Every repetition reseeds from its own index, so concurrent reps
	// train the models the sequential loop would. Accuracy columns are
	// worker-count-invariant; the train-time columns measure real elapsed
	// time and are the one part of a report that legitimately varies.
	if err := par.ForEach(opts.Workers, reps, func(rep int) error {
		seed := opts.Seed + uint64(rep)*977

		start := time.Now()
		dfModel, err := core.TrainDeepForestEA(train, dfConfig(train.Schema, opts), stats.NewRNG(seed))
		if err != nil {
			return err
		}
		dfTime := time.Since(start).Seconds()
		dfSamples[rep] = trainSample{
			trainAcc: accuracy(dfModel, train.Features(), train.Targets()),
			valAcc:   accuracy(dfModel, val.Features(), val.Targets()),
			seconds:  dfTime,
		}

		start = time.Now()
		cnnModel, err := neural.Train(train.Features(), train.Targets(), cnnCfg, stats.NewRNG(seed))
		if err != nil {
			return err
		}
		cnnTime := time.Since(start).Seconds()
		cnnSamples[rep] = trainSample{
			trainAcc: accuracy(cnnModel, train.Features(), train.Targets()),
			valAcc:   accuracy(cnnModel, val.Features(), val.Targets()),
			seconds:  cnnTime,
		}
		return nil
	}); err != nil {
		return nil, err
	}

	rep := &Report{
		ID:      "fig5",
		Title:   fmt.Sprintf("Training variation over %d repeated runs (deep forest vs CNN)", reps),
		Columns: []string{"model", "metric", "mean", "min", "max"},
	}
	summarise := func(name, metric string, get func(trainSample) float64, samples []trainSample) {
		vals := make([]float64, len(samples))
		for i, s := range samples {
			vals[i] = get(s)
		}
		sum := stats.Summarize(vals)
		rep.Rows = append(rep.Rows, []string{
			name, metric,
			fmt.Sprintf("%.3f", sum.Mean), fmt.Sprintf("%.3f", sum.Min), fmt.Sprintf("%.3f", sum.Max),
		})
	}
	summarise("deep forest", "train accuracy", func(s trainSample) float64 { return s.trainAcc }, dfSamples)
	summarise("deep forest", "val accuracy", func(s trainSample) float64 { return s.valAcc }, dfSamples)
	summarise("deep forest", "train time (s)", func(s trainSample) float64 { return s.seconds }, dfSamples)
	summarise("CNN", "train accuracy", func(s trainSample) float64 { return s.trainAcc }, cnnSamples)
	summarise("CNN", "val accuracy", func(s trainSample) float64 { return s.valAcc }, cnnSamples)
	summarise("CNN", "train time (s)", func(s trainSample) float64 { return s.seconds }, cnnSamples)

	dfSpread := spread(dfSamples, func(s trainSample) float64 { return s.valAcc })
	cnnSpread := spread(cnnSamples, func(s trainSample) float64 { return s.valAcc })
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("validation-accuracy spread (max-min): deep forest %.3f, CNN %.3f", dfSpread, cnnSpread),
		"paper: best CNNs can outperform deep forests, but worst CNNs are ~2x less accurate; deep forests are stable")
	return rep, nil
}

// trainSample records one repeated-training outcome.
type trainSample struct{ trainAcc, valAcc, seconds float64 }

func spread(samples []trainSample, get func(trainSample) float64) float64 {
	lo, hi := get(samples[0]), get(samples[0])
	for _, s := range samples[1:] {
		v := get(s)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return hi - lo
}

package experiments

import (
	"fmt"
	"strconv"

	"stac/internal/core"
	"stac/internal/counters"
	"stac/internal/deepforest"
	"stac/internal/par"
	"stac/internal/profile"
	"stac/internal/stats"
	"stac/internal/testbed"
	"stac/internal/workload"
)

func init() {
	register("fig7a", Fig7a)
	register("fig7b", Fig7b)
	register("fig7c", Fig7c)
}

// Fig7a reproduces Figure 7(a): per-collocation median prediction error.
// Each bar "x(y)" is the error predicting x's response time while y is
// collocated. Held-out rows are never used in training.
func Fig7a(opts Options) (*Report, error) {
	opts = opts.defaults()
	nPoints, queries := datasetScale(opts)
	pairs := []pairSpec{
		{"jacobi", "bfs"},
		{"knn", "kmeans"},
		{"spkmeans", "spstream"},
		{"social", "redis"},
		{"redis", "bfs"},
		{"social", "spkmeans"},
	}
	rep := &Report{
		ID:      "fig7a",
		Title:   "Prediction error per collocation (median APE)",
		Columns: []string{"collocation", "median APE", "n"},
	}
	// Each pair's bars accumulate into its own slot; the fan-in walks
	// slots in pair order so row order and the worst-case note match the
	// sequential harness exactly.
	type bar struct {
		label string
		med   float64
		n     int
	}
	perPair := make([][]bar, len(pairs))
	if err := par.ForEach(opts.Workers, len(pairs), func(pi int) error {
		pair := pairs[pi]
		seed := opts.Seed + uint64(pi)*503
		ds, err := collectPair(pair, nPoints, queries, 0, seed, opts.Workers)
		if err != nil {
			return err
		}
		train, test := ds.SplitByCondition(0.5, seed+1)
		test = test.AggregateByCondition()
		p, _, _, err := trainPipeline(train, opts, seed+2)
		if err != nil {
			return err
		}
		for _, svc := range []string{pair.a, pair.b} {
			other := pair.a
			if svc == pair.a {
				other = pair.b
			}
			sub := test.FilterService(svc)
			if sub.Len() == 0 {
				continue
			}
			errs, err := core.EvaluatePredictor(p, sub, 2, opts.Workers)
			if err != nil {
				return err
			}
			perPair[pi] = append(perPair[pi], bar{
				label: fmt.Sprintf("%s(%s)", svc, other),
				med:   stats.Median(errs),
				n:     sub.Len(),
			})
		}
		return nil
	}); err != nil {
		return nil, err
	}
	worst := 0.0
	for _, bars := range perPair {
		for _, b := range bars {
			if b.med > worst {
				worst = b.med
			}
			rep.Rows = append(rep.Rows, []string{b.label, pct(b.med), strconv.Itoa(b.n)})
		}
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("worst collocation median APE: %s", pct(worst)),
		"paper: median error below 15% for every collocation")
	return rep, nil
}

// fig7bPlatform describes one cross-processor configuration: how many
// services fully utilise the cores and how the LLC ways are split.
type fig7bPlatform struct {
	proc        testbed.Processor
	services    int
	privateWays int
	sharedWays  int
}

func fig7bPlatforms() []fig7bPlatform {
	return []fig7bPlatform{
		{testbed.Xeon2620(), 3, 2, 2},
		{testbed.Xeon2650(), 5, 2, 1},
		{testbed.XeonE5_2683(), 6, 2, 1},
		{testbed.XeonPlatinum8275B(), 8, 2, 2},
		{testbed.XeonPlatinum8275A(), 8, 3, 1},
	}
}

// Fig7b reproduces Figure 7(b): prediction accuracy across processor LLC
// sizes, with the number of collocated workloads rising alongside the
// core count. Profiles, training and evaluation all happen per platform.
func Fig7b(opts Options) (*Report, error) {
	opts = opts.defaults()
	const queries, runs = 60, 10
	kernels := workload.All()

	rep := &Report{
		ID:      "fig7b",
		Title:   "Prediction error across processor cache sizes",
		Columns: []string{"processor", "LLC MB", "workloads", "median APE", "n"},
	}
	platforms := fig7bPlatforms()
	rows := make([][]string, len(platforms))
	if err := par.ForEach(opts.Workers, len(platforms), func(pi int) error {
		plat := platforms[pi]
		seed := opts.Seed + uint64(pi)*811
		// The condition-generation rng is private to this platform, so
		// concurrent platforms don't perturb each other's draws.
		rng := stats.NewRNG(seed)
		conds := make([]testbed.Condition, runs)
		for run := 0; run < runs; run++ {
			conds[run] = chainCondition(plat.proc, kernels, plat.services,
				plat.privateWays, plat.sharedWays, queries, rng, seed+uint64(run)*37)
		}
		ds := profile.Dataset{Schema: profile.DefaultSchema()}
		perRun := make([][]profile.Row, runs)
		if err := par.ForEach(opts.Workers, runs, func(run int) error {
			res, err := testbed.Run(conds[run])
			if err != nil {
				return err
			}
			for svcIdx := range res.Services {
				rows, err := profile.BuildRows(ds.Schema, res, svcIdx)
				if err != nil {
					return err
				}
				for r := range rows {
					rows[r].CondID = run
				}
				perRun[run] = append(perRun[run], rows...)
			}
			return nil
		}); err != nil {
			return err
		}
		for _, rs := range perRun {
			ds.Rows = append(ds.Rows, rs...)
		}
		train, test := ds.SplitByCondition(0.5, seed+1)
		test = test.AggregateByCondition()
		if train.Len() == 0 || test.Len() == 0 {
			return fmt.Errorf("fig7b: empty split for %s", plat.proc.Name)
		}
		p, _, _, err := trainPipeline(train, opts, seed+2)
		if err != nil {
			return err
		}
		errs, err := core.EvaluatePredictor(p, test, 2, opts.Workers)
		if err != nil {
			return err
		}
		rows[pi] = []string{
			plat.proc.Name,
			strconv.Itoa(plat.proc.LLCMegabytes),
			strconv.Itoa(plat.services),
			pct(stats.Median(errs)),
			strconv.Itoa(len(errs)),
		}
		return nil
	}); err != nil {
		return nil, err
	}
	rep.Rows = append(rep.Rows, rows...)
	rep.Notes = append(rep.Notes,
		"paper: median error below 15% on all five platforms (20-72 MB LLC)")
	return rep, nil
}

// Fig7c reproduces Figure 7(c): the multi-grain-scanning ablation. Each
// row modifies exactly one dimension of the baseline: counter ordering
// (spatial vs shuffled), MGS window sizes, estimator counts, and the
// counter sampling rate.
func Fig7c(opts Options) (*Report, error) {
	opts = opts.defaults()
	nPoints, queries := datasetScale(opts)
	pair := pairSpec{"redis", "bfs"}
	seed := opts.Seed + 7000

	// Two collections that differ only in sampling period: the baseline
	// (testbed default) and a 5x coarser one.
	base, err := collectPair(pair, nPoints, queries, 0, seed, opts.Workers)
	if err != nil {
		return nil, err
	}
	coarse, err := collectPair(pair, nPoints, queries, 5*50e-6, seed, opts.Workers)
	if err != nil {
		return nil, err
	}

	evalDS := func(ds profile.Dataset, mutate func(*deepforest.Config)) (float64, error) {
		train, test := ds.SplitByCondition(0.5, seed+1)
		test = test.AggregateByCondition()
		cfg := dfConfig(train.Schema, opts)
		if mutate != nil {
			mutate(&cfg)
		}
		model, err := core.TrainDeepForestEA(train, cfg, stats.NewRNG(seed+2))
		if err != nil {
			return 0, err
		}
		p, err := core.NewPredictor(model, train, 2, opts.Workers)
		if err != nil {
			return 0, err
		}
		errs, err := core.EvaluatePredictor(p, test, 2, opts.Workers)
		if err != nil {
			return 0, err
		}
		return stats.Median(errs), nil
	}

	rep := &Report{
		ID:      "fig7c",
		Title:   "Multi-grain scanning ablation (median APE)",
		Columns: []string{"setting", "median APE"},
	}

	// Shuffled counter order destroys spatial locality; the other
	// variants perturb the learner config. Each ablation is independent,
	// so they fan out; medians land in variant order.
	variants := []struct {
		name   string
		ds     profile.Dataset
		mutate func(*deepforest.Config)
	}{
		{"baseline (spatial order, 4 windows)", base, nil},
		{"random counter order", reorderDataset(base, counters.ShuffledOrder(seed)), nil},
		{"small windows (3x3 only)", base, func(c *deepforest.Config) {
			c.Windows = []deepforest.WindowConfig{{Size: 3, Stride: 6, Trees: c.Windows[0].Trees}}
		}},
		// Few estimators: the paper observes accuracy degrades toward
		// the queue-model-only level.
		{"few estimators (2 trees/forest)", base, func(c *deepforest.Config) {
			for i := range c.Windows {
				c.Windows[i].Trees = 2
			}
			c.CascadeTrees = 2
		}},
		{"coarse counter sampling (5x period)", coarse, nil},
	}
	meds := make([]float64, len(variants))
	if err := par.ForEach(opts.Workers, len(variants), func(i int) error {
		m, err := evalDS(variants[i].ds, variants[i].mutate)
		if err != nil {
			return err
		}
		meds[i] = m
		return nil
	}); err != nil {
		return nil, err
	}
	for i, v := range variants {
		rep.Rows = append(rep.Rows, []string{v.name, pct(meds[i])})
	}

	rep.Notes = append(rep.Notes,
		"paper: removing spatial ordering raised error 5%->15%; 4x smaller windows doubled error;",
		"1-sample-per-5s cost ~2% extra error; too-few estimators degrade to queue-model accuracy")
	return rep, nil
}

// reorderDataset permutes the counter rows of every feature matrix.
func reorderDataset(ds profile.Dataset, order []int) profile.Dataset {
	out := profile.Dataset{Schema: profile.Schema{CounterOrder: order}, Rows: make([]profile.Row, len(ds.Rows))}
	const off, q = profile.MatrixOffset, profile.QueriesPerRow
	for i, r := range ds.Rows {
		nr := r
		nr.Features = append([]float64(nil), r.Features...)
		for c, src := range order {
			copy(nr.Features[off+c*q:off+(c+1)*q], r.Features[off+src*q:off+(src+1)*q])
		}
		out.Rows[i] = nr
	}
	return out
}

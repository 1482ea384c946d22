package experiments

import (
	"fmt"
	"sync"
	"time"

	"stac/internal/core"
	"stac/internal/deepforest"
	"stac/internal/obs"
	"stac/internal/profile"
	"stac/internal/stats"
	"stac/internal/testbed"
	"stac/internal/workload"
)

// pairSpec names a collocated pair by kernel ids.
type pairSpec struct{ a, b string }

func (p pairSpec) String() string { return p.a + "+" + p.b }

func (p pairSpec) kernels() (workload.Kernel, workload.Kernel, error) {
	ka, err := workload.ByName(p.a)
	if err != nil {
		return workload.Kernel{}, workload.Kernel{}, err
	}
	kb, err := workload.ByName(p.b)
	if err != nil {
		return workload.Kernel{}, workload.Kernel{}, err
	}
	return ka, kb, nil
}

// collectKey identifies one profiling dataset: everything that
// determines its contents, and nothing that doesn't (worker counts are
// deliberately absent — collection is deterministic across them).
type collectKey struct {
	pair         string
	nPoints      int
	queries      int
	samplePeriod float64
	seed         uint64
	highLoad     bool
}

// collectEntry memoizes one dataset. The sync.Once serialises the two
// generators racing for the same key (the loser reuses the winner's
// result) without serialising collections of *different* keys.
type collectEntry struct {
	once sync.Once
	ds   profile.Dataset
	err  error
}

// datasetCache memoizes collectPair/collectPairHighLoad results across
// generators: whenever two figures profile the same pair at the same
// scale and seed (fig5 and fig6 share their redis+bfs campaign, fig8
// and fig8e their first suite; the bench harness and repeated Run calls
// hit every entry) the simulation runs once. Cached datasets are
// shared — callers must treat rows and feature slices as read-only
// (SplitByCondition, AggregateByCondition and reorderDataset all copy
// before mutating).
var datasetCache sync.Map // collectKey -> *collectEntry

// resetDatasetCache empties the cache. Test seam: the determinism
// regression test clears it between runs so parallel collection is
// actually re-exercised rather than served from memory.
func resetDatasetCache() {
	datasetCache.Range(func(k, _ any) bool {
		datasetCache.Delete(k)
		return true
	})
}

func cachedCollect(key collectKey, collect func() (profile.Dataset, error)) (profile.Dataset, error) {
	obs.C("collect/requests").Inc()
	e, _ := datasetCache.LoadOrStore(key, &collectEntry{})
	entry := e.(*collectEntry)
	entry.once.Do(func() {
		// Cache-hit rate for snapshots is collect/requests minus
		// collect/collections; the span tree shows where profiling time
		// actually went, keyed by pair.
		obs.C("collect/collections").Inc()
		defer obs.Span("collect/" + key.pair)()
		entry.ds, entry.err = collect()
	})
	return entry.ds, entry.err
}

// collectPair gathers a profiling dataset for one pair with nPoints
// stratified-sampled runtime conditions, fanning the per-condition
// testbed runs out over workers goroutines. Results are memoized in the
// dataset cache and byte-identical at any worker count.
func collectPair(p pairSpec, nPoints, queries int, samplePeriod float64, seed uint64, workers int) (profile.Dataset, error) {
	key := collectKey{pair: p.String(), nPoints: nPoints, queries: queries, samplePeriod: samplePeriod, seed: seed}
	return cachedCollect(key, func() (profile.Dataset, error) {
		ka, kb, err := p.kernels()
		if err != nil {
			return profile.Dataset{}, err
		}
		opts := profile.CollectOptions{
			KernelA:           ka,
			KernelB:           kb,
			QueriesPerService: queries,
			SamplePeriod:      samplePeriod,
			Seed:              seed,
			Workers:           workers,
		}
		rng := stats.NewRNG(seed)
		nSeeds := nPoints / 3
		if nSeeds < 4 {
			nSeeds = 4
		}
		pts := profile.StratifiedPoints(nPoints, nSeeds, 4, func(pt profile.Point) float64 {
			return profile.EvalEA(opts, pt)
		}, rng, workers)
		return profile.Collect(opts, pts)
	})
}

// collectPairHighLoad profiles a pair with half the points drawn from the
// full condition space (stratified) and half concentrated at high loads —
// the regime where policy search operates. Memoized and parallelised
// like collectPair.
func collectPairHighLoad(p pairSpec, nPoints, queries int, seed uint64, workers int) (profile.Dataset, error) {
	key := collectKey{pair: p.String(), nPoints: nPoints, queries: queries, seed: seed, highLoad: true}
	return cachedCollect(key, func() (profile.Dataset, error) {
		ka, kb, err := p.kernels()
		if err != nil {
			return profile.Dataset{}, err
		}
		opts := profile.CollectOptions{
			KernelA:           ka,
			KernelB:           kb,
			QueriesPerService: queries,
			Seed:              seed,
			Workers:           workers,
		}
		rng := stats.NewRNG(seed)
		broad := profile.StratifiedPoints(nPoints/2, nPoints/6+2, 4, func(pt profile.Point) float64 {
			return profile.EvalEA(opts, pt)
		}, rng, workers)
		focused := profile.UniformPoints(nPoints-len(broad), rng)
		for i := range focused {
			focused[i].LoadA = stats.Uniform{Lo: 0.75, Hi: 0.95}.Sample(rng)
			focused[i].LoadB = stats.Uniform{Lo: 0.75, Hi: 0.95}.Sample(rng)
		}
		return profile.Collect(opts, append(broad, focused...))
	})
}

// datasetScale returns the per-pair profiling sizes for the option level.
func datasetScale(opts Options) (nPoints, queries int) {
	if opts.scale != nil {
		return opts.scale[0], opts.scale[1]
	}
	return 54, 100
}

// trainPipeline trains the full deep-forest pipeline on a training split.
func trainPipeline(train profile.Dataset, opts Options, seed uint64) (*core.Predictor, *deepforest.Model, time.Duration, error) {
	cfg := dfConfig(train.Schema, opts)
	defer obs.Span("train/pipeline")()
	start := time.Now()
	model, err := core.TrainDeepForestEA(train, cfg, stats.NewRNG(seed))
	if err != nil {
		return nil, nil, 0, err
	}
	elapsed := time.Since(start)
	obs.H("train/pipeline_seconds").Observe(elapsed.Seconds())
	p, err := core.NewPredictor(model, train, 2, opts.Workers)
	if err != nil {
		return nil, nil, 0, err
	}
	return p, model, elapsed, nil
}

// dfConfig returns the deep-forest configuration for the option level.
func dfConfig(schema profile.Schema, opts Options) deepforest.Config {
	cfg := deepforest.FastConfig(core.MatrixSpec(schema))
	cfg.Workers = opts.Workers
	return cfg
}

// medianAndP95 summarises an error sample.
func medianAndP95(errs []float64) (float64, float64) {
	return stats.Median(errs), stats.Percentile(errs, 95)
}

// chainCondition builds a multi-service condition for the Figure 7b
// cross-processor study: n services drawn round-robin from the kernel
// list, each with its own load and timeout.
func chainCondition(proc testbed.Processor, kernels []workload.Kernel, n, privateWays, sharedWays, queries int, rng *stats.RNG, seed uint64) testbed.Condition {
	cond := testbed.Condition{
		Processor:   proc,
		PrivateWays: privateWays,
		SharedWays:  sharedWays,
		Seed:        seed,
	}
	for i := 0; i < n; i++ {
		cond.Services = append(cond.Services, testbed.ServiceSpec{
			Kernel:  kernels[i%len(kernels)],
			Load:    stats.Uniform{Lo: 0.4, Hi: 0.95}.Sample(rng),
			Timeout: stats.Uniform{Lo: 0, Hi: 4}.Sample(rng),
		})
	}
	cond = cond.Defaults()
	cond.QueriesPerService = queries
	return cond
}

func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.2fs", d.Seconds())
}

package profile

import (
	"fmt"

	"stac/internal/par"
	"stac/internal/testbed"
	"stac/internal/workload"
)

// CollectOptions configures profile collection for one collocated pair
// on the Xeon E5-2683, in the DefaultSchema.
type CollectOptions struct {
	// KernelA and KernelB are the collocated workloads.
	KernelA, KernelB workload.Kernel
	// QueriesPerService per profiling run; each run yields roughly
	// QueriesPerService / QueriesPerRow rows per service.
	QueriesPerService int
	// SamplePeriod is the counter-sampling period passed to the testbed
	// (0 = testbed default).
	SamplePeriod float64
	// Seed drives all randomness.
	Seed uint64
	// Workers bounds how many profiling conditions run concurrently
	// (0 = GOMAXPROCS, 1 = sequential). Each condition is seeded from
	// Seed and its point index alone, so the collected dataset is
	// identical at any worker count.
	Workers int
}

func (o CollectOptions) defaults() CollectOptions {
	if o.QueriesPerService == 0 {
		o.QueriesPerService = 100
	}
	return o
}

// condition materialises a testbed condition for one sampled point.
func (o CollectOptions) condition(p Point, runIdx int) testbed.Condition {
	cond := testbed.Pair(o.KernelA, o.KernelB, p.LoadA, p.LoadB, p.TimeoutA, p.TimeoutB,
		o.Seed+uint64(runIdx)*1_000_003)
	cond.QueriesPerService = o.QueriesPerService
	if o.SamplePeriod > 0 {
		cond.SamplePeriod = o.SamplePeriod
	}
	return cond
}

// Collect runs one profiling experiment per point and assembles the
// dataset: rows for both collocated services. Points run on up to
// opts.Workers goroutines; rows are assembled in point order, so the
// dataset is byte-identical regardless of scheduling.
func Collect(opts CollectOptions, points []Point) (Dataset, error) {
	opts = opts.defaults()
	schema := DefaultSchema()
	perPoint := make([][]Row, len(points))
	err := par.ForEach(opts.Workers, len(points), func(i int) error {
		run, err := testbed.Run(opts.condition(points[i], i))
		if err != nil {
			return fmt.Errorf("profile: point %d: %w", i, err)
		}
		// A truncated run yields systematically censored tail latencies;
		// training on it would silently bias the model, so fail loudly.
		if err := run.RequireComplete(); err != nil {
			return fmt.Errorf("profile: point %d: %w", i, err)
		}
		var rows []Row
		for svcIdx := range run.Services {
			svcRows, err := BuildRows(schema, run, svcIdx)
			if err != nil {
				return fmt.Errorf("profile: point %d service %d: %w", i, svcIdx, err)
			}
			for r := range svcRows {
				svcRows[r].CondID = i
			}
			rows = append(rows, svcRows...)
		}
		perPoint[i] = rows
		return nil
	})
	if err != nil {
		return Dataset{}, err
	}
	ds := Dataset{Schema: schema}
	for _, rows := range perPoint {
		ds.Rows = append(ds.Rows, rows...)
	}
	return ds, nil
}

// EvalEA runs a short profiling experiment at a point and returns the
// measured effective allocation of service A — the outcome signal the
// stratified sampler clusters on.
func EvalEA(opts CollectOptions, p Point) float64 {
	opts = opts.defaults()
	opts.QueriesPerService = 40
	run, err := testbed.Run(opts.condition(p, 0))
	if err != nil {
		return 0
	}
	return run.Services[0].EffectiveAllocation()
}

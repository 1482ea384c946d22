package main

import (
	"fmt"
	"time"

	"stac/internal/fleet"
	"stac/internal/obs"
	"stac/internal/stats"
)

// fleetEpochs lengthens the hot-shift scenario well past its six-epoch
// rate profile, whose last entry holds: the one migration then is a
// small share of the run and the run measures steady node simulation.
const fleetEpochs = 16

// fleetBench runs the hot-shift fleet scenario with the model-driven
// migrator, once per operation and with a fresh seed each time.
type fleetBench struct {
	o    options
	runs []fleetRun
}

type fleetRun struct {
	traced    bool
	seconds   float64
	queries   int
	p95       float64
	nodeRuns  uint64
	truncated int
	failures  []string
}

func newFleetBench(o options) *fleetBench { return &fleetBench{o: o} }

func (f *fleetBench) config(seed uint64, epochs int) fleet.Config {
	cfg := fleet.ScenarioHotShift(seed, true)
	cfg.Epochs = epochs
	cfg.Workers = f.o.workers
	return cfg
}

// setup warms the process with a short run that stops soon after the
// shift.
func (f *fleetBench) setup(*tracer) error {
	_, err := fleet.Run(f.config(f.o.seed*1000+999, 4))
	return err
}

func (f *fleetBench) setupLayers() bool { return false }

func (f *fleetBench) more(_ int, elapsed, budget float64) bool { return elapsed < budget }

func (f *fleetBench) op(i int, tr *tracer) (opResult, error) {
	cfg := f.config(f.o.seed*1000+uint64(i), fleetEpochs)
	nodeRuns := obs.C("fleet/node_runs")
	nodeRuns0 := nodeRuns.Load()
	var res *fleet.Result
	start := time.Now()
	err := tr.call("fleet_run", func() (err error) {
		res, err = fleet.Run(cfg)
		return err
	})
	seconds := time.Since(start).Seconds()
	if err != nil {
		return opResult{}, err
	}
	r := fleetRun{
		traced:    tr != nil,
		seconds:   seconds,
		queries:   res.Queries,
		p95:       res.FleetP95,
		nodeRuns:  nodeRuns.Load() - nodeRuns0,
		truncated: res.Truncated,
	}
	if res.Truncated != 0 {
		r.failures = append(r.failures, fmt.Sprintf("%d truncated node runs", res.Truncated))
	}
	moved := false
	for _, m := range res.Migration("redis") {
		moved = moved || (m.From == "small" && m.Epoch <= 3)
	}
	if !moved {
		r.failures = append(r.failures, fmt.Sprintf("redis did not move off small by epoch 3: %+v",
			res.Migration("redis")))
	}
	f.runs = append(f.runs, r)
	layers := map[string]float64{
		"fleet.qps":          float64(r.queries) / seconds,
		"fleet.p95_us":       r.p95 * 1e6,
		"fleet.ns_per_query": seconds * 1e9 / float64(r.queries),
		"fail_ratio":         float64(r.truncated) / float64(r.nodeRuns),
	}
	return opResult{seconds: seconds, layers: layers}, nil
}

func (f *fleetBench) outcome() outcome {
	var o outcome
	var runMS, qps []float64
	for _, r := range f.runs {
		o.attempted += int64(r.nodeRuns)
		o.failed += int64(r.truncated)
		o.failures = append(o.failures, r.failures...)
		if !r.traced {
			runMS = append(runMS, 1000*r.seconds)
			qps = append(qps, float64(r.queries)/r.seconds)
		}
	}
	o.latencyMS = stats.Median(runMS)
	o.report = []namedValue{
		{"runs", float64(len(f.runs)), "count"},
		{"fleet_qps", stats.Median(qps), "1/s"},
		{"fleet_p95_us", f.runs[0].p95 * 1e6, "us"},
		{"fail_ratio", float64(o.failed) / float64(o.attempted), "ratio"},
	}
	return o
}

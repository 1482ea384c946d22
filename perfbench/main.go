// Command perfbench is the repository's benchmark. It runs one named
// workload against the library's public calls, checks the outputs, and
// prints its metrics by name and unit. The last line of standard output
// is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (latency_ms,
// setup_s, peak_rss_mb). With --trace 1 they are the per-layer ones:
// every other round of operations runs traced, recording a span around
// each call into a layer and the delta of the program's obs counters
// across it. See README.md for the workloads and every metric.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload <pipeline|fleet-hotshift|serve-open> \
//	    --seed N --seconds S --trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"syscall"
	"time"

	"stac/internal/stats"
)

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 3

// unattributedTolerancePct bounds the share of a traced operation's wall
// time that no layer span covers: the layer self times must sum to the
// end-to-end time within it.
const unattributedTolerancePct = 5

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workers  int
}

// opResult is what one operation reports to the run loop.
type opResult struct {
	// seconds stands for the operation's host time: its wall time, or for
	// serve-open the mean of its phases' median latencies. Traced and
	// untraced values are compared for the tracing overhead.
	seconds float64
	// layers holds workload-level per-layer metrics of this operation.
	layers map[string]float64
}

// outcome is a workload's summary of a whole run.
type outcome struct {
	latencyMS         float64
	attempted, failed int64
	// failures lists every output check that did not hold.
	failures []string
	// report holds the workload's own named metrics, printed in every run.
	report []namedValue
}

type namedValue struct {
	name  string
	value float64
	unit  string
}

// bench is one workload as the run loop runs it.
type bench interface {
	// setup prepares what the timed operations use; it runs setupRepeats
	// times. tr is non-nil on the last repeat of a traced run when
	// setupLayers is true.
	setup(tr *tracer) error
	// setupLayers reports whether the traced set-up counts towards the
	// per-layer metrics (when the operations depend on what it built).
	setupLayers() bool
	// more reports whether to start round `round`, elapsed seconds into
	// a run that measures for budget seconds.
	more(round int, elapsed, budget float64) bool
	// op runs operation i; tr is nil when it runs untraced.
	op(i int, tr *tracer) (opResult, error)
	outcome() outcome
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// layerSpec names one per-layer metric. Host metrics are medians over
// the traced operations; the others are simulated values or counts,
// taken from the first traced operation so that they repeat exactly for
// a given seed.
type layerSpec struct {
	name, unit string
	host       bool
}

var perLayer = []layerSpec{
	{"cache.accesses", "count", false},
	{"cache.llc_miss_ratio", "ratio", false},
	{"cache.ns_per_access", "ns", true},
	{"testbed.s", "s", true},
	{"testbed.runs", "count", false},
	{"testbed.queries", "count", false},
	{"testbed.truncated_runs", "count", false},
	{"profile.s", "s", true},
	{"profile.conditions", "count", false},
	{"deepforest.train_s", "s", true},
	{"forest.trees_trained", "count", false},
	{"policy.decide_s", "s", true},
	{"policy.validate_s", "s", true},
	{"queueing.simulations", "count", false},
	{"queueing.queries", "count", false},
	{"surrogate.setup_s", "s", true},
	{"surrogate.sweep_s", "s", true},
	{"surrogate.us_per_plan", "us", true},
	{"surrogate.sim_runs", "count", false},
	{"surrogate.validate_s", "s", true},
	{"fleet.run_s", "s", true},
	{"fleet.ns_per_query", "ns", true},
	{"fleet.node_runs", "count", false},
	{"fleet.queries_routed", "count", false},
	{"fleet.migrations", "count", false},
	{"fleet.truncated_runs", "count", false},
	{"serve.engine_p99_ms", "ms", true},
	{"serve.gen_late_p99_ms", "ms", true},
	{"serve.batch_size_mean", "count", true},
	{"serve.flush_delay_share", "ratio", true},
	{"serve.model_calls", "count", true},
	{"serve.cache_hit_ratio", "ratio", true},
	{"serve.shed", "count", true},
	{"go.alloc_mb", "MB", true},
	{"go.gc_cycles", "count", true},
	{"trace.overhead_pct", "%", true},
	{"trace.unattributed_pct", "%", true},
	{"pipeline.decide_s", "s", true},
	{"pipeline.search_s", "s", true},
	{"pipeline.decide_speedup", "x", false},
	{"pipeline.decide_ape_pct", "%", false},
	{"pipeline.search_speedup", "x", false},
	{"pipeline.search_ape_pct", "%", false},
	{"fleet.qps", "1/s", true},
	{"fleet.p95_us", "us", false},
	{"serve.low_p50_ms", "ms", true},
	{"serve.low_p99_ms", "ms", true},
	{"serve.high_p50_ms", "ms", true},
	{"serve.high_p99_ms", "ms", true},
	{"fail_ratio", "ratio", false},
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "pipeline, fleet-hotshift or serve-open")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "how long the run measures")
	traceFlag := flag.Int("trace", 0, "1 reports per-layer metrics from traced operations")
	flag.Parse()
	o.trace = *traceFlag == 1
	// One process generates all the load; every layer gets the CPUs.
	o.workers = runtime.NumCPU()
	runtime.GOMAXPROCS(o.workers)

	var w bench
	switch o.workload {
	case "pipeline":
		w = newPipeline(o)
	case "fleet-hotshift":
		w = newFleetBench(o)
	case "serve-open":
		w = newServeBench(o)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	res, err := run(w, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(w bench, o options) (result, error) {
	setup := make([]float64, setupRepeats)
	var setupTrace *tracer
	for r := range setup {
		var tr *tracer
		if o.trace && r == setupRepeats-1 && w.setupLayers() {
			tr = newTracer()
		}
		start := time.Now()
		err := w.setup(tr)
		setup[r] = time.Since(start).Seconds()
		tr.finish()
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setupTrace = tr
	}

	minRounds := 1
	if o.trace {
		minRounds = 2 // at least one traced and one untraced round
	}
	var traced []map[string]float64
	var tracedSec, untracedSec []float64
	start := time.Now()
	for i := 0; i < minRounds || w.more(i, time.Since(start).Seconds(), o.seconds); i++ {
		var tr *tracer
		if o.trace && i%2 == 0 {
			tr = newTracer()
		}
		r, err := w.op(i, tr)
		tr.finish()
		if err != nil {
			return result{}, fmt.Errorf("operation %d: %w", i, err)
		}
		if tr == nil {
			untracedSec = append(untracedSec, r.seconds)
			continue
		}
		m := tr.layerMetrics()
		for k, v := range r.layers {
			m[k] = v
		}
		traced = append(traced, m)
		tracedSec = append(tracedSec, r.seconds)
	}

	out := w.outcome()
	res := result{
		Correct:   len(out.failures) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	for _, f := range out.failures {
		fmt.Println("# check failed:", f)
	}
	for _, v := range out.report {
		fmt.Printf("# %-24s %14.6g %s\n", v.name, v.value, v.unit)
	}
	setupS := stats.Median(setup)
	fmt.Printf("# %-24s %14.6g s (repeats %v)\n", "setup_s", setupS, setup)
	fmt.Printf("# operation seconds: untraced %v traced %v\n", untracedSec, tracedSec)
	if !o.trace {
		res.Metrics["latency_ms"] = metric{out.latencyMS, "ms"}
		res.Metrics["setup_s"] = metric{setupS, "s"}
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return result{}, fmt.Errorf("peak memory: %w", err)
		}
		res.Metrics["peak_rss_mb"] = metric{float64(ru.Maxrss) / 1024, "MB"} // Linux reports KiB
		return res, nil
	}

	layers := combineLayers(traced, setupTrace)
	layers["trace.overhead_pct"] = 100 * (stats.Mean(tracedSec)/stats.Mean(untracedSec) - 1)
	if u := layers["trace.unattributed_pct"]; u > unattributedTolerancePct {
		res.Correct = false
		fmt.Printf("# check failed: layer self times leave %.2f%% of the operation unattributed (tolerance %d%%)\n",
			u, unattributedTolerancePct)
	}
	for _, s := range perLayer {
		v := layers[s.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[s.name] = metric{v, s.unit}
		fmt.Printf("# %-24s %14.6g %s\n", s.name, v, s.unit)
	}
	return res, nil
}

// combineLayers reduces the traced operations' metrics to one value per
// per-layer metric. The traced set-up fills the metrics of layers that
// the operations do not call.
func combineLayers(traced []map[string]float64, setupTrace *tracer) map[string]float64 {
	out := map[string]float64{}
	for _, s := range perLayer {
		var vals []float64
		for _, m := range traced {
			if v, ok := m[s.name]; ok {
				vals = append(vals, v)
			}
		}
		switch {
		case len(vals) == 0:
		case s.host:
			out[s.name] = stats.Median(vals)
		default:
			out[s.name] = vals[0]
		}
	}
	if setupTrace != nil {
		for k, v := range setupTrace.layerMetrics() {
			if out[k] == 0 {
				out[k] = v
			}
		}
	}
	return out
}

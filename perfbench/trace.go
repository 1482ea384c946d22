package main

import (
	"runtime"
	"strings"

	"stac/internal/obs"
)

// tracer records one traced operation. Spans go into a private obs
// registry: the operation is the root span "op" and every call into a
// layer is a child "op/<layer>", so path nesting gives the parent span.
// Around each layer call it also takes the delta of the counters the
// program publishes to obs.Default, attributed to that layer. A nil
// *tracer records nothing, which is how untraced operations run.
type tracer struct {
	spans  *obs.Registry
	root   obs.Timing
	deltas map[string]map[string]float64 // layer -> counter -> delta

	mem0 runtime.MemStats
	mem1 runtime.MemStats
}

func newTracer() *tracer {
	t := &tracer{spans: obs.NewRegistry(), deltas: map[string]map[string]float64{}}
	runtime.ReadMemStats(&t.mem0)
	t.root = t.spans.StartSpan("op")
	return t
}

// finish closes the root span.
func (t *tracer) finish() {
	if t == nil {
		return
	}
	t.root.End()
	runtime.ReadMemStats(&t.mem1)
}

// call runs fn as one call into layer, timed and counted when t is
// non-nil.
func (t *tracer) call(layer string, fn func() error) error {
	if t == nil {
		return fn()
	}
	before := counters(obs.Default)
	span := t.spans.StartSpan("op/" + layer)
	err := fn()
	span.End()
	after := counters(obs.Default)
	d := t.deltas[layer]
	if d == nil {
		d = map[string]float64{}
		t.deltas[layer] = d
	}
	for name, v := range after {
		d[name] += float64(v - before[name])
	}
	return err
}

func counters(r *obs.Registry) map[string]uint64 {
	snap := r.Snapshot()
	out := make(map[string]uint64, len(snap.Counters))
	for _, c := range snap.Counters {
		out[c.Name] = c.Value
	}
	return out
}

// selfTimes returns each span path's self time in seconds: its total
// minus the part its child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	out := map[string]float64{}
	var walk func(n *obs.SpanNode)
	walk = func(n *obs.SpanNode) {
		self := n.TotalSeconds
		for _, c := range n.Children {
			self -= c.TotalSeconds
			walk(c)
		}
		out[n.Path] = self
	}
	for _, n := range t.spans.Snapshot().Spans {
		walk(n)
	}
	return out
}

// opSeconds is the root span's wall time.
func (t *tracer) opSeconds() float64 {
	for _, n := range t.spans.Snapshot().Spans {
		if n.Path == "op" {
			return n.TotalSeconds
		}
	}
	return 0
}

// counter sums a counter's deltas over the named layers, or over every
// layer when none is named.
func (t *tracer) counter(name string, layers ...string) float64 {
	if len(layers) == 0 {
		for l := range t.deltas {
			layers = append(layers, l)
		}
	}
	var sum float64
	for _, l := range layers {
		sum += t.deltas[l][name]
	}
	return sum
}

// counterMatch sums the deltas of every counter whose name has the
// given prefix and suffix, over every layer.
func (t *tracer) counterMatch(prefix, suffix string) float64 {
	var sum float64
	for _, d := range t.deltas {
		for name, v := range d {
			if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
				sum += v
			}
		}
	}
	return sum
}

// layerMetrics turns the trace into the per-layer metrics that the
// program's shared layers produce, whichever workload called them.
func (t *tracer) layerMetrics() map[string]float64 {
	self := t.selfTimes()
	s := func(layers ...string) float64 {
		var sum float64
		for _, l := range layers {
			sum += self["op/"+l]
		}
		return sum
	}
	m := map[string]float64{
		"profile.s":              s("profile"),
		"profile.conditions":     t.counter("testbed/runs", "profile"),
		"deepforest.train_s":     s("train"),
		"forest.trees_trained":   t.counter("forest/trees_trained"),
		"policy.decide_s":        s("decide"),
		"policy.validate_s":      s("speedups", "evaluate"),
		"queueing.simulations":   t.counter("queueing/simulations"),
		"queueing.queries":       t.counter("queueing/queries"),
		"surrogate.setup_s":      s("surrogate_setup"),
		"surrogate.sweep_s":      s("sweep"),
		"surrogate.sim_runs":     t.counter("queueing/simulations", "sweep"),
		"surrogate.validate_s":   s("validate"),
		"fleet.run_s":            s("fleet_run"),
		"fleet.node_runs":        t.counter("fleet/node_runs"),
		"fleet.queries_routed":   t.counter("fleet/queries_routed"),
		"fleet.migrations":       t.counter("fleet/migrations"),
		"fleet.truncated_runs":   t.counter("fleet/truncated_runs"),
		"testbed.runs":           t.counter("testbed/runs"),
		"testbed.queries":        t.counter("testbed/queries"),
		"testbed.truncated_runs": t.counter("testbed/truncated_runs"),
		// Calls whose time is spent running the simulated testbed.
		"testbed.s":    s("profile", "speedups", "evaluate", "validate", "fleet_run"),
		"go.alloc_mb":  float64(t.mem1.TotalAlloc-t.mem0.TotalAlloc) / (1 << 20),
		"go.gc_cycles": float64(t.mem1.NumGC - t.mem0.NumGC),
	}
	// Every simulated access reaches L1 first, so L1 hits + misses count
	// them all; the LLC counters are published per service.
	accesses := t.counter("cache/l1/hits") + t.counter("cache/l1/misses")
	m["cache.accesses"] = accesses
	llcMiss := t.counterMatch("cache/llc/svc/", "/misses")
	if llcRefs := llcMiss + t.counterMatch("cache/llc/svc/", "/hits"); llcRefs > 0 {
		m["cache.llc_miss_ratio"] = llcMiss / llcRefs
	}
	if accesses > 0 {
		m["cache.ns_per_access"] = m["testbed.s"] * 1e9 / accesses
	}
	if op := t.opSeconds(); op > 0 {
		m["trace.unattributed_pct"] = 100 * self["op"] / op
	}
	return m
}

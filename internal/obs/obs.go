// Package obs is the repository's observability layer: a zero-dependency
// metrics registry (atomic counters, gauges and streaming histograms with
// quantile estimates), lightweight phase spans that aggregate into a
// run-trace tree, and a deterministic JSON snapshot export.
//
// The package is written for instrumentation of hot code: every record
// operation (Counter.Add, Gauge.Set, Histogram.Observe, Timing.End) is
// lock-free and allocation-free, so probes can live inside the simulator
// and worker pools without perturbing what they measure. Metric handles
// are looked up by name once (a read-locked map access) and then cached
// by the caller; the per-event cost is one or two atomic operations.
//
// Metrics carry no labels — dimensions are encoded in slash-separated
// names ("cache/llc/redis/misses"), and span paths ("fig6/pair/redis+bfs")
// nest by prefix when the snapshot assembles the trace tree. Everything
// funnels into the process-wide Default registry by convention; tests
// construct private registries.
package obs

import (
	"os"
	"sync"
)

// Registry holds named metrics and span statistics. The zero value is not
// usable; construct with NewRegistry. All methods are safe for concurrent
// use.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	spans      map[string]*spanStat
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		spans:      make(map[string]*spanStat),
	}
}

// Default is the process-wide registry that package-level helpers use.
var Default = NewRegistry()

// Counter returns the named counter, creating it on first use. Callers on
// hot paths should look the counter up once and keep the pointer.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h, ok := r.histograms[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.histograms[name]; ok {
		return h
	}
	h = newHistogram()
	r.histograms[name] = h
	return h
}

// Reset drops every metric and span. Meant for tests; concurrent
// recording through previously obtained handles keeps working but is no
// longer visible in snapshots.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters = make(map[string]*Counter)
	r.gauges = make(map[string]*Gauge)
	r.histograms = make(map[string]*Histogram)
	r.spans = make(map[string]*spanStat)
}

// C returns a counter from the Default registry.
func C(name string) *Counter { return Default.Counter(name) }

// G returns a gauge from the Default registry.
func G(name string) *Gauge { return Default.Gauge(name) }

// H returns a histogram from the Default registry.
func H(name string) *Histogram { return Default.Histogram(name) }

// Span starts a span at path in the Default registry and returns the
// function that ends it: defer obs.Span("fig6/pair")().
func Span(path string) func() { return Default.Span(path) }

// StartSpan starts a span at path in the Default registry without
// allocating; end it with Timing.End.
func StartSpan(path string) Timing { return Default.StartSpan(path) }

// WriteFile writes the Default registry's snapshot to path.
func WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Default.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package main

import (
	"fmt"
	"sync"
	"time"

	"stac"
	"stac/internal/core"
	"stac/internal/deepforest"
	"stac/internal/obs"
	"stac/internal/serve"
	"stac/internal/stats"
	"stac/internal/workload"
)

// Open-loop arrival rates of the two serving phases. At the low rate a
// 2 ms batching window rarely holds a second request, so most batches
// flush on the MaxDelay timer. At the high rate the window holds a few
// requests, so most batches carry more than one. It is a quarter of the
// cold (uncached) capacity, about 4.8k predictions/s measured with 16
// closed-loop clients on a 2-CPU Xeon box: at 3000/s a shared host's
// stalls built backlogs there that shed requests on their deadline and
// made the phase's median latency swing from run to run.
const (
	lowRate  = 300.0
	highRate = 1200.0
)

// requestDeadlineMS is the deadline every request carries. It is far above
// any latency the phases reach, so a host stall delays requests rather
// than failing them.
const requestDeadlineMS = 1000

// serveBench drives an in-process serve.Engine with an open loop. Each
// operation is one round: a low-rate phase, then a high-rate phase, each
// a quarter of the run, so a run is two rounds.
type serveBench struct {
	o        options
	engine   *serve.Engine
	reg      *obs.Registry
	services []string
	rounds   []serveRound
}

type serveRound struct {
	traced    bool
	low, high phaseStats
}

// phaseStats is one open-loop phase's outcome. Latencies are in ms from
// each request's due time.
type phaseStats struct {
	latency  []float64 // successful requests only
	late     []float64 // how late the generator sent each request
	sent     int
	failed   int
	failures []string
}

func newServeBench(o options) *serveBench { return &serveBench{o: o} }

// setup profiles redis + social, trains the deep-forest model and
// starts an engine serving it, with a private metrics registry.
func (s *serveBench) setup(tr *tracer) error {
	if s.engine != nil {
		s.engine.Close()
	}
	var ds stac.Dataset
	if err := tr.call("profile", func() (err error) {
		ds, err = stac.Profile(stac.ProfileOptions{KernelA: workload.Redis(), KernelB: workload.Social(), Points: 12,
			QueriesPerCondition: 60, Seed: s.o.seed, Workers: s.o.workers})
		return err
	}); err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	var model *deepforest.Model
	if err := tr.call("train", func() (err error) {
		cfg := deepforest.FastConfig(core.MatrixSpec(ds.Schema))
		cfg.Workers = s.o.workers
		model, err = core.TrainDeepForestEA(ds, cfg, stats.NewRNG(s.o.seed+1))
		return err
	}); err != nil {
		return fmt.Errorf("train: %w", err)
	}
	s.reg = obs.NewRegistry()
	s.engine = serve.NewEngine(serve.Config{Obs: s.reg})
	return tr.call("engine", func() error {
		info, err := s.engine.Install(model, ds)
		s.services = info.Services
		return err
	})
}

func (s *serveBench) setupLayers() bool { return true }

func (s *serveBench) more(round int, _, _ float64) bool { return round < 2 }

func (s *serveBench) op(i int, tr *tracer) (opResult, error) {
	phase := time.Duration(s.o.seconds / 4 * float64(time.Second))
	rng := stats.NewRNG(s.o.seed*1000 + uint64(i))
	r := serveRound{traced: tr != nil}
	before := counters(s.reg)
	batches := s.reg.Histogram("serve/batch/size")
	calls0, sum0 := batches.Count(), batches.Sum()
	// Phases run inside layer calls so that a traced round attributes
	// their wall time; the open loop itself cannot fail.
	_ = tr.call("serve_low", func() error { r.low = s.openLoop(lowRate, phase, rng); return nil })
	_ = tr.call("serve_high", func() error { r.high = s.openLoop(highRate, phase, rng); return nil })
	s.rounds = append(s.rounds, r)

	after := counters(s.reg)
	delta := func(names ...string) float64 {
		var d float64
		for _, n := range names {
			d += float64(after[n] - before[n])
		}
		return d
	}
	calls := float64(batches.Count() - calls0)
	hits, misses := delta("serve/cache/hits"), delta("serve/cache/misses")
	late := append(append([]float64(nil), r.low.late...), r.high.late...)
	sent := float64(r.low.sent + r.high.sent)
	layers := map[string]float64{
		"serve.low_p50_ms":        stats.Percentile(r.low.latency, 50),
		"serve.low_p99_ms":        stats.Percentile(r.low.latency, 99),
		"serve.high_p50_ms":       stats.Percentile(r.high.latency, 50),
		"serve.high_p99_ms":       stats.Percentile(r.high.latency, 99),
		"serve.engine_p99_ms":     1000 * s.reg.Histogram("serve/predict/latency").Quantile(0.99),
		"serve.gen_late_p99_ms":   stats.Percentile(late, 99),
		"serve.model_calls":       calls,
		"serve.batch_size_mean":   (batches.Sum() - sum0) / calls,
		"serve.flush_delay_share": delta("serve/batch/flush_delay") / calls,
		"serve.cache_hit_ratio":   hits / (hits + misses),
		"serve.shed": delta("serve/shed/queue_full", "serve/shed/deadline",
			"serve/shed/rate_limited", "serve/shed/draining"),
		"fail_ratio": float64(r.low.failed+r.high.failed) / sent,
	}
	seconds := (stats.Median(r.low.latency) + stats.Median(r.high.latency)) / 2 / 1000
	return opResult{seconds: seconds, layers: layers}, nil
}

// openLoop sends Poisson arrivals at rate for d, each at its due time
// regardless of earlier completions, and times each request from when
// it was due. Every request carries a fresh runtime condition, so it
// almost always misses the prediction cache and reaches the batcher.
func (s *serveBench) openLoop(rate float64, d time.Duration, rng *stats.RNG) phaseStats {
	// Draw the schedule and the requests first, so the loop below only
	// waits and sends.
	var dues []time.Duration
	var reqs []serve.PredictRequest
	arrivals := stats.Exponential{Rate: rate}
	for t := arrivals.Sample(rng); t < d.Seconds(); t += arrivals.Sample(rng) {
		dues = append(dues, time.Duration(t*float64(time.Second)))
		reqs = append(reqs, serve.PredictRequest{
			Service:        s.services[len(reqs)%len(s.services)],
			Load:           0.1 + 0.8*rng.Float64(),
			Timeout:        5 * rng.Float64(),
			PartnerLoad:    0.8 * rng.Float64(),
			PartnerTimeout: 5 * rng.Float64(),
			DeadlineMS:     requestDeadlineMS,
		})
	}
	n := len(reqs)
	latency := make([]float64, n)
	resps := make([]serve.PredictResponse, n)
	errs := make([]*serve.Error, n)
	late := make([]float64, n)

	var wg sync.WaitGroup
	start := time.Now()
	for k := range reqs {
		due := start.Add(dues[k])
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		late[k] = ms(time.Since(due))
		wg.Add(1)
		go func(k int, due time.Time) {
			defer wg.Done()
			resps[k], errs[k] = s.engine.Predict(reqs[k])
			latency[k] = ms(time.Since(due))
		}(k, due)
	}
	wg.Wait()

	p := phaseStats{late: late, sent: n}
	for k := range reqs {
		if errs[k] != nil {
			p.failed++
			continue
		}
		p.latency = append(p.latency, latency[k])
		if r := resps[k]; r.EA < 0.02 || r.EA > 1.5 || r.ModelVersion != 1 {
			p.failures = append(p.failures, fmt.Sprintf("response EA %v, model version %d", r.EA, r.ModelVersion))
		}
	}
	return p
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (s *serveBench) outcome() outcome {
	s.engine.Close()
	var o outcome
	var low, high []float64
	for _, r := range s.rounds {
		for _, p := range []phaseStats{r.low, r.high} {
			o.attempted += int64(p.sent)
			o.failed += int64(p.failed)
			o.failures = append(o.failures, p.failures...)
		}
		if !r.traced {
			low = append(low, r.low.latency...)
			high = append(high, r.high.latency...)
		}
	}
	// latency_ms weighs the two load levels equally.
	o.latencyMS = (stats.Median(low) + stats.Median(high)) / 2
	o.report = []namedValue{
		{"requests_low", float64(len(low)), "count"},
		{"requests_high", float64(len(high)), "count"},
		{"serve_low_p50_ms", stats.Percentile(low, 50), "ms"},
		{"serve_low_p99_ms", stats.Percentile(low, 99), "ms"},
		{"serve_high_p50_ms", stats.Percentile(high, 50), "ms"},
		{"serve_high_p99_ms", stats.Percentile(high, 99), "ms"},
		{"fail_ratio", float64(o.failed) / float64(o.attempted), "ratio"},
	}
	return o
}

// Package loadgen drives a serve.Engine (in-process) or a running stac
// serve instance (over HTTP) with synthetic prediction traffic and
// reports achieved throughput and tail latency.
//
// Two loop disciplines, the standard pair for serving benchmarks:
//
//   - closed: N workers issue requests back-to-back. Measures the
//     server's capacity — achieved QPS is the headline number.
//   - open: Poisson arrivals (exponential inter-arrival gaps) replayed
//     in real time at a target rate, independent of completions. Measures
//     latency at a fixed offered load, the honest tail-latency setup —
//     a closed loop hides queueing delay by self-throttling. Each
//     request is timed from its due time, so a generator that falls
//     behind its schedule shows up in the latencies.
//
// Requests draw from a deterministic pool of runtime conditions
// (Config.Conditions). The pool size controls how cacheable the
// workload is: steady-state serving consults the model repeatedly under
// slowly-moving conditions, so a modest pool models reality; a pool
// larger than the prediction cache forces the cold batched path.
package loadgen

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"stac/internal/serve"
	"stac/internal/stats"
)

// Target is anything that can answer one prediction request.
type Target interface {
	Predict(req serve.PredictRequest) (serve.PredictResponse, error)
}

// Config parameterises one load-generation run.
type Config struct {
	// Mode is "closed" (default) or "open".
	Mode string
	// Workers is the closed-loop concurrency, and the bound on
	// outstanding requests in open-loop mode (default 4).
	Workers int
	// Duration is the measured interval (default 5s); Warmup runs the
	// closed loop unrecorded first (default 1s; negative disables) so
	// caches reach steady state.
	Duration time.Duration
	Warmup   time.Duration
	// TargetQPS is the open-loop offered load (required for open mode).
	TargetQPS float64
	// Services are the service names to spread requests over (required).
	Services []string
	// Conditions is the runtime-condition pool size (default 512).
	Conditions int
	// DeadlineMS is attached to every request (0 = server default).
	DeadlineMS float64
	// NoCache bypasses the server's prediction cache, exercising the
	// batched cold path on every request.
	NoCache bool
	// Seed makes the condition pool and arrival process deterministic
	// (default 1).
	Seed uint64
}

func (c Config) defaults() Config {
	if c.Mode == "" {
		c.Mode = "closed"
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
	if c.Warmup < 0 {
		c.Warmup = 0
	} else if c.Warmup == 0 {
		c.Warmup = time.Second
	}
	if c.Conditions <= 0 {
		c.Conditions = 512
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Result summarises one run. Latencies are milliseconds.
type Result struct {
	Mode       string  `json:"mode"`
	Workers    int     `json:"workers"`
	Seconds    float64 `json:"seconds"`
	Requests   int     `json:"requests"`
	OK         int     `json:"ok"`
	QPS        float64 `json:"qps"`
	OfferedQPS float64 `json:"offered_qps,omitempty"`

	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
	MeanMS float64 `json:"mean_ms"`
	MaxMS  float64 `json:"max_ms"`

	// CacheHitRatio is the fraction of successful responses served from
	// the prediction cache — report it alongside QPS: the six-figure
	// headline is a cache-hit number, the cold path is model-bound.
	CacheHitRatio float64 `json:"cache_hit_ratio"`

	// Errors counts shed/failed requests by typed code.
	Errors map[string]int `json:"errors,omitempty"`

	// Overruns counts open-loop arrivals the generator dispatched more
	// than 1 ms late (client fell behind the schedule) — nonzero means
	// the offered load was not actually sustained client-side. Open-loop
	// latencies run from each arrival's due time, so they include that
	// lag.
	Overruns int `json:"overruns,omitempty"`
	// Dropped counts open-loop arrivals discarded because the
	// outstanding-request bound was hit.
	Dropped int `json:"dropped,omitempty"`
}

// workerStats accumulates per-goroutine so the hot loop never contends.
type workerStats struct {
	latencies []float64 // seconds
	ok        int
	cached    int
	errors    map[string]int
}

func newWorkerStats() *workerStats {
	return &workerStats{errors: map[string]int{}}
}

func (w *workerStats) record(resp serve.PredictResponse, err error, lat time.Duration) {
	if err != nil {
		code := serve.AsError(err).Code
		w.errors[code]++
		return
	}
	w.ok++
	if resp.Cached {
		w.cached++
	}
	w.latencies = append(w.latencies, lat.Seconds())
}

// Run executes one load-generation run against the target.
func Run(cfg Config, target Target) (Result, error) {
	cfg = cfg.defaults()
	if target == nil {
		return Result{}, fmt.Errorf("loadgen: nil target")
	}
	if len(cfg.Services) == 0 {
		return Result{}, fmt.Errorf("loadgen: no services configured")
	}
	pool := buildPool(cfg)
	switch cfg.Mode {
	case "closed":
		return runClosed(cfg, target, pool), nil
	case "open":
		if cfg.TargetQPS <= 0 {
			return Result{}, fmt.Errorf("loadgen: open mode needs a target QPS")
		}
		return runOpen(cfg, target, pool), nil
	default:
		return Result{}, fmt.Errorf("loadgen: unknown mode %q (closed or open)", cfg.Mode)
	}
}

// buildPool draws the deterministic runtime-condition pool: loads and
// timeouts spanning the model's training envelope across the services.
func buildPool(cfg Config) []serve.PredictRequest {
	rng := stats.NewRNG(cfg.Seed)
	timeouts := []float64{0, 1, 2, 4, 8}
	pool := make([]serve.PredictRequest, cfg.Conditions)
	for i := range pool {
		pool[i] = serve.PredictRequest{
			Service:        cfg.Services[i%len(cfg.Services)],
			Load:           0.1 + 0.8*rng.Float64(),
			Timeout:        timeouts[int(rng.Float64()*float64(len(timeouts)))%len(timeouts)],
			PartnerLoad:    0.8 * rng.Float64(),
			PartnerTimeout: timeouts[int(rng.Float64()*float64(len(timeouts)))%len(timeouts)],
			DeadlineMS:     cfg.DeadlineMS,
			NoCache:        cfg.NoCache,
		}
	}
	return pool
}

func runClosed(cfg Config, target Target, pool []serve.PredictRequest) Result {
	// Warmup: same loop, nothing recorded.
	if cfg.Warmup > 0 {
		runPhase(cfg, target, pool, cfg.Warmup, nil)
	}
	all := make([]*workerStats, cfg.Workers)
	for i := range all {
		all[i] = newWorkerStats()
	}
	elapsed := runPhase(cfg, target, pool, cfg.Duration, all)
	return summarise(cfg, all, elapsed)
}

// runPhase runs the closed loop for d; stats may be nil (warmup).
func runPhase(cfg Config, target Target, pool []serve.PredictRequest, d time.Duration, stats []*workerStats) float64 {
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Cheap per-worker LCG index stream; determinism of the
			// *pool* matters, the visit order does not.
			idx := uint64(w)*2654435761 + cfg.Seed
			var st *workerStats
			if stats != nil {
				st = stats[w]
			}
			for i := 0; ; i++ {
				// Amortise the clock check.
				if i%64 == 0 && !time.Now().Before(deadline) {
					return
				}
				idx = idx*6364136223846793005 + 1442695040888963407
				req := pool[idx%uint64(len(pool))]
				t0 := time.Now()
				resp, err := target.Predict(req)
				if st != nil {
					st.record(resp, err, time.Since(t0))
				}
			}
		}(w)
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

func runOpen(cfg Config, target Target, pool []serve.PredictRequest) Result {
	if cfg.Warmup > 0 {
		runPhase(cfg, target, pool, cfg.Warmup, nil)
	}

	gaps := stats.Exponential{Rate: cfg.TargetQPS}
	arrivals := stats.NewRNG(cfg.Seed + 1)
	at := 0.0 // the next arrival, in seconds after start
	sem := make(chan struct{}, cfg.Workers)
	var wg sync.WaitGroup
	var mu sync.Mutex
	st := newWorkerStats()
	overruns, dropped, issued := 0, 0, 0

	rng := stats.NewRNG(cfg.Seed + 2)
	start := time.Now()
	for {
		at += gaps.Sample(arrivals)
		due := start.Add(time.Duration(at * float64(time.Second)))
		if due.Sub(start) > cfg.Duration {
			break
		}
		now := time.Now()
		if wait := due.Sub(now); wait > 0 {
			time.Sleep(wait)
		} else if -wait > time.Millisecond {
			overruns++
		}
		select {
		case sem <- struct{}{}:
		default:
			dropped++
			continue
		}
		issued++
		req := pool[int(rng.Float64()*float64(len(pool)))%len(pool)]
		wg.Add(1)
		// Latency runs from the due time, not from dispatch: a request
		// the generator sent late waited that long too.
		go func(req serve.PredictRequest, due time.Time) {
			defer wg.Done()
			resp, err := target.Predict(req)
			lat := time.Since(due)
			mu.Lock()
			st.record(resp, err, lat)
			mu.Unlock()
			<-sem
		}(req, due)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	res := summarise(cfg, []*workerStats{st}, elapsed)
	res.OfferedQPS = cfg.TargetQPS
	res.Overruns = overruns
	res.Dropped = dropped
	res.Requests = issued + dropped
	return res
}

func summarise(cfg Config, all []*workerStats, elapsed float64) Result {
	res := Result{
		Mode:    cfg.Mode,
		Workers: cfg.Workers,
		Seconds: elapsed,
		Errors:  map[string]int{},
	}
	var lats []float64
	cached := 0
	for _, st := range all {
		res.OK += st.ok
		cached += st.cached
		lats = append(lats, st.latencies...)
		for code, n := range st.errors {
			res.Errors[code] += n
		}
	}
	res.Requests = res.OK
	for _, n := range res.Errors {
		res.Requests += n
	}
	if elapsed > 0 {
		res.QPS = float64(res.OK) / elapsed
	}
	if res.OK > 0 {
		res.CacheHitRatio = float64(cached) / float64(res.OK)
	}
	if len(res.Errors) == 0 {
		res.Errors = nil
	}
	if len(lats) > 0 {
		sort.Float64s(lats)
		sum := 0.0
		for _, l := range lats {
			sum += l
		}
		q := func(p float64) float64 {
			i := int(p * float64(len(lats)-1))
			return lats[i] * 1e3
		}
		res.P50MS = q(0.50)
		res.P95MS = q(0.95)
		res.P99MS = q(0.99)
		res.MeanMS = sum / float64(len(lats)) * 1e3
		res.MaxMS = lats[len(lats)-1] * 1e3
	}
	return res
}

// Package queueing implements Stage 3 of the modeling pipeline (§3.3):
// first-principles response-time modeling. Short-term cache allocation
// couples queueing delay to service rate (a query that waits long enough
// gets boosted), which breaks the Markovian assumptions of closed-form
// models — so the package centres on a discrete-event G/G/k simulator
// whose service rate switches when a query's time in system crosses the
// policy timeout, scaled by the learned effective cache allocation.
// Closed-form M/M/c, M/M/1 and M/G/1 results live in the package's tests,
// where they validate the simulator in the no-boost regime.
package queueing

import (
	"fmt"
	"math"

	"stac/internal/obs"
	"stac/internal/stats"
)

// Simulator metrics: per-query service/response/wait distributions plus
// run counters. Handles are resolved once at init. Per-query histogram
// updates are decimated deterministically (one measured query in
// simSampleEvery) — the simulator's inner loop is only a few hundred
// nanoseconds per query, and observing every query costs ~45% of it.
// Distribution shape is preserved; min/max reflect the sampled subset.
// Counters remain exact. A Simulator observes into histograms of its
// own and flushes them into the shared ones once per run, so simulators
// running on different goroutines do not contend on the shared
// histograms' atomics for every sampled query.
const simSampleEvery = 8

var (
	simRuns            = obs.C("queueing/simulations")
	simQueries         = obs.C("queueing/queries")
	simBoosted         = obs.C("queueing/boosted_queries")
	simServiceSeconds  = obs.H("queueing/service_seconds")
	simResponseSeconds = obs.H("queueing/response_seconds")
	simWaitSeconds     = obs.H("queueing/wait_seconds")
)

// Config parameterises one service's queueing simulation.
type Config struct {
	// Servers is k, the number of parallel servers (the paper provisions
	// 2 cores per service).
	Servers int
	// Arrival is the inter-arrival time distribution.
	Arrival stats.Dist
	// Service is the base service-time distribution (processing under the
	// default allocation, no boost).
	Service stats.Dist
	// Timeout is the absolute time-in-system after which the remaining
	// work runs at the boosted rate. Use math.Inf(1) for never.
	Timeout float64
	// BoostRate is the service-rate multiplier while boosted: effective
	// allocation × gross allocation ratio. Values below 1 model boosts
	// that hurt (heavy contention).
	BoostRate float64
	// Queries is the number of completed queries to measure after Warmup.
	Queries int
	// Warmup queries are simulated but not measured.
	Warmup int
	// Seed drives the simulation's randomness.
	Seed uint64
}

func (c Config) validate() error {
	if c.Servers <= 0 {
		return fmt.Errorf("queueing: servers must be positive")
	}
	if c.Arrival == nil || c.Service == nil {
		return fmt.Errorf("queueing: arrival and service distributions required")
	}
	if c.Queries <= 0 {
		return fmt.Errorf("queueing: queries must be positive")
	}
	if c.Warmup < 0 {
		return fmt.Errorf("queueing: negative warmup")
	}
	if c.Timeout < 0 {
		return fmt.Errorf("queueing: negative timeout")
	}
	if c.BoostRate <= 0 {
		return fmt.Errorf("queueing: boost rate must be positive")
	}
	return nil
}

// Result summarises a simulation.
type Result struct {
	ResponseTimes []float64
	QueueDelays   []float64
	// Arrivals holds each measured query's absolute arrival epoch, aligned
	// with ResponseTimes/QueueDelays. Property tests reconstruct
	// number-in-system at arrival instants from it (PASTA) to check
	// Little's law against an estimate that does not share the identity
	// L = λ·W trivially with the response times themselves.
	Arrivals    []float64
	BoostedFrac float64
}

// MeanResponse returns the average response time.
func (r Result) MeanResponse() float64 { return stats.Mean(r.ResponseTimes) }

// P95Response returns the 95th-percentile response time.
func (r Result) P95Response() float64 { return stats.Percentile(r.ResponseTimes, 95) }

// MeanQueueDelay returns the average waiting time — the "instantaneous
// queuing delay ... outputted as dynamic condition feedback for future
// simulations" (§3.3).
func (r Result) MeanQueueDelay() float64 { return stats.Mean(r.QueueDelays) }

// Simulator runs FCFS G/G/k simulations with reusable state: the RNG,
// the server-free heap and the result slices are retained between runs,
// so a caller issuing many simulations (the fleet migrator evaluates
// every candidate node each epoch) performs no steady-state allocation.
// The Result returned by Run aliases the simulator's buffers and is
// overwritten by the next Run; callers that retain it must copy.
// Numerics are bit-identical to Simulate (TestSimulatorMatchesSimulate).
//
// When both distributions are standardized, Run also keeps the
// run's standard variates: query q draws its arrival's standard variate
// and then its service's, so the interleaved stream depends only on the
// seed and the two kinds, never on rates, means or spreads. A later run
// with the same seed and kinds transforms the kept draws instead of
// drawing again, and extends them when it is longer. Stage 3 seeds every
// simulation alike and varies only the parameters, so its repeated runs
// skip the RNG, the logarithm and the normal rejection loop.
//
// A Simulator is not safe for concurrent use.
type Simulator struct {
	rng        *stats.RNG
	serverFree []float64
	resp       []float64
	delays     []float64
	arrs       []float64
	std        stdStream

	// One run's sampled queries, flushed to the shared histograms when
	// it ends.
	service, response, wait obs.LocalHistogram
}

// standardized is a distribution whose Sample(r) is
// Transform(Std().Draw(r)) bit for bit (stats.Exponential and
// stats.Lognormal).
type standardized interface {
	Std() stats.Standard
	Transform(v float64) float64
}

// stdStream is the kept standard-variate stream of one (seed, arrival
// kind, service kind): arr[q] and svc[q] are query q's draws, and the
// simulator's rng stands just past the last of them.
type stdStream struct {
	valid    bool
	seed     uint64
	arrKind  stats.Standard
	svcKind  stats.Standard
	arr, svc []float64
}

// NewSimulator returns a simulator with empty buffers; they grow to the
// largest run issued and are reused thereafter.
func NewSimulator() *Simulator { return &Simulator{} }

// Simulate runs the FCFS G/G/k simulation with timeout-triggered speedup.
//
// Because service is FCFS and non-preemptive per query, each query's
// completion can be computed exactly at dispatch: work done before the
// boost instant runs at rate 1, the remainder at BoostRate. A query whose
// queueing delay already exceeds the timeout runs boosted from its first
// cycle — exactly how the testbed's proxy behaves.
//
// The returned Result owns fresh slices. Hot paths issuing many
// simulations should hold a Simulator and call Run instead.
func Simulate(cfg Config) (Result, error) {
	var s Simulator
	return s.run(cfg, false)
}

// Run executes one simulation, reusing the simulator's buffers and, when
// the seed and draw kinds repeat, its standard variates.
func (s *Simulator) Run(cfg Config) (Result, error) { return s.run(cfg, true) }

// run executes one simulation. keep selects the kept standard-variate
// stream; a one-shot simulation samples inline and keeps nothing.
func (s *Simulator) run(cfg Config, keep bool) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	total := cfg.Queries + cfg.Warmup
	arrival, arrOK := cfg.Arrival.(standardized)
	service, svcOK := cfg.Service.(standardized)
	kept := keep && arrOK && svcOK
	if kept {
		s.keepStd(cfg.Seed, arrival.Std(), service.Std(), total)
	} else {
		s.reseed(cfg.Seed)
		// Inline draws move the rng off any kept stream.
		s.std.valid = false
	}
	rng := s.rng
	arrStd, svcStd := s.std.arr, s.std.svc

	// serverFree[i] is when server i next becomes idle; FCFS assigns each
	// arrival to the earliest-free server (equivalent to a single queue).
	if cap(s.serverFree) < cfg.Servers {
		s.serverFree = make([]float64, cfg.Servers)
	} else {
		s.serverFree = s.serverFree[:cfg.Servers]
		for i := range s.serverFree {
			s.serverFree[i] = 0
		}
	}
	serverFree := s.serverFree

	if cap(s.resp) < cfg.Queries {
		s.resp = make([]float64, 0, cfg.Queries)
		s.delays = make([]float64, 0, cfg.Queries)
		s.arrs = make([]float64, 0, cfg.Queries)
	}
	res := Result{
		ResponseTimes: s.resp[:0],
		QueueDelays:   s.delays[:0],
		Arrivals:      s.arrs[:0],
	}
	boosted := 0
	now := 0.0
	for q := 0; q < total; q++ {
		var work float64
		if kept {
			now += arrival.Transform(arrStd[q])
			work = service.Transform(svcStd[q])
		} else {
			now += cfg.Arrival.Sample(rng)
			work = cfg.Service.Sample(rng)
		}
		if work <= 0 {
			work = 1e-12
		}

		// Earliest-free server.
		best := 0
		for i := 1; i < cfg.Servers; i++ {
			if serverFree[i] < serverFree[best] {
				best = i
			}
		}
		start := math.Max(now, serverFree[best])
		boostAt := now + cfg.Timeout

		var completion float64
		wasBoosted := false
		if math.IsInf(cfg.Timeout, 1) {
			completion = start + work
		} else if start >= boostAt {
			completion = start + work/cfg.BoostRate
			wasBoosted = true
		} else {
			baseSpan := boostAt - start
			if work <= baseSpan {
				completion = start + work
			} else {
				completion = boostAt + (work-baseSpan)/cfg.BoostRate
				wasBoosted = true
			}
		}
		serverFree[best] = completion

		if q >= cfg.Warmup {
			if len(res.ResponseTimes)%simSampleEvery == 0 {
				s.service.Observe(work)
				s.response.Observe(completion - now)
				s.wait.Observe(start - now)
			}
			res.ResponseTimes = append(res.ResponseTimes, completion-now)
			res.QueueDelays = append(res.QueueDelays, start-now)
			res.Arrivals = append(res.Arrivals, now)
			if wasBoosted {
				boosted++
			}
		}
	}
	if cfg.Queries > 0 {
		res.BoostedFrac = float64(boosted) / float64(cfg.Queries)
	}
	s.resp, s.delays, s.arrs = res.ResponseTimes, res.QueueDelays, res.Arrivals
	s.service.Flush(simServiceSeconds)
	s.response.Flush(simResponseSeconds)
	s.wait.Flush(simWaitSeconds)
	simRuns.Inc()
	simQueries.Add(uint64(cfg.Queries))
	simBoosted.Add(uint64(boosted))
	return res, nil
}

// reseed restarts the simulator's rng at seed.
func (s *Simulator) reseed(seed uint64) {
	if s.rng == nil {
		s.rng = stats.NewRNG(seed)
	} else {
		s.rng.Reseed(seed)
	}
}

// keepStd makes s.std the stream of (seed, arrival kind, service kind)
// with at least n queries' draws. A stream of another seed or other
// kinds is dropped and redrawn from the seed; a short stream of the
// right one is extended from where its rng stopped.
func (s *Simulator) keepStd(seed uint64, arrKind, svcKind stats.Standard, n int) {
	st := &s.std
	if !st.valid || st.seed != seed || st.arrKind != arrKind || st.svcKind != svcKind {
		s.reseed(seed)
		*st = stdStream{valid: true, seed: seed, arrKind: arrKind, svcKind: svcKind,
			arr: st.arr[:0], svc: st.svc[:0]}
	}
	for len(st.arr) < n {
		st.arr = append(st.arr, arrKind.Draw(s.rng))
		st.svc = append(st.svc, svcKind.Draw(s.rng))
	}
}

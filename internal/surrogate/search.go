package surrogate

import (
	"fmt"
	"math"
	"sort"

	"stac/internal/mrc"
	"stac/internal/obs"
	"stac/internal/par"
	"stac/internal/queueing"
	"stac/internal/stats"
	"stac/internal/testbed"
	"stac/internal/workload"
)

// Plan is one candidate CAT mask plan for a two-service collocation: an
// asymmetric chain layout [ privA | shared | privB ] plus the per-service
// short-term allocation timeouts (relative to expected service time;
// testbed.NeverBoost disables boosting).
type Plan struct {
	PrivA, PrivB, Shared int
	TimeoutA, TimeoutB   float64
}

func (p Plan) String() string {
	ft := func(t float64) string {
		if math.IsInf(t, 1) {
			return "never"
		}
		return fmt.Sprintf("%.2g", t)
	}
	return fmt.Sprintf("[%d|%d|%d] t=(%s,%s)", p.PrivA, p.Shared, p.PrivB, ft(p.TimeoutA), ft(p.TimeoutB))
}

// Evaluation is the surrogate's prediction for one plan.
type Evaluation struct {
	Plan Plan
	// P95 and Mean are predicted response times per service.
	P95  [2]float64
	Mean [2]float64
	// Speedup is predicted p95 speedup over the no-sharing baseline
	// (baseline p95 / plan p95), the Figure 8 metric.
	Speedup [2]float64
	// Score ranks plans: the geometric mean of the two speedups.
	Score float64
	// BoostedFrac is the predicted fraction of boosted queries.
	BoostedFrac [2]float64
}

// Config parameterises a Searcher.
type Config struct {
	Processor        testbed.Processor
	KernelA, KernelB workload.Kernel
	LoadA, LoadB     float64
	// Accesses is the MRC trace length per kernel (default 40000).
	Accesses int
	// Sampler, when non-nil, builds the curves with SHARDS sampling (a
	// 4-seed averaged set) instead of the exact Mattson pass.
	Sampler *mrc.SamplerConfig
	// Intervals, when non-nil, builds each curve from representative
	// intervals (SelectIntervals): the trace is clustered into K windows
	// and only the representatives are profiled — the cheapest curve
	// source, at the cost of treating cross-window reuse as cold.
	Intervals *IntervalConfig
	// SimQueries is the Stage-3 simulation length per plan evaluation
	// (default 1500).
	SimQueries int
	// Grid is the timeout grid EnumeratePlans sweeps (default the paper's
	// 5-point grid, §5.2).
	Grid []float64
	// Seed drives curve construction, anchoring and the queueing sims.
	Seed uint64
	// Workers bounds each of the searcher's fan-outs: the two services'
	// set-up, the per-way anchor calibrations, the sweep's simulations
	// and Validate's testbed runs (0 = GOMAXPROCS). Results are identical
	// at any value. A server that must keep cores for other requests
	// passes fewer than GOMAXPROCS.
	Workers int
}

func (c Config) defaults() Config {
	if c.Processor.Name == "" {
		c.Processor = testbed.XeonE5_2683()
	}
	if c.LoadA == 0 {
		c.LoadA = 0.9
	}
	if c.LoadB == 0 {
		c.LoadB = 0.9
	}
	if c.Accesses == 0 {
		c.Accesses = 40000
	}
	if c.SimQueries == 0 {
		c.SimQueries = 1500
	}
	if len(c.Grid) == 0 {
		// The paper's searched timeout settings (policy.TimeoutGrid).
		c.Grid = []float64{0, 0.5, 1.5, 3, 4.5}
	}
	return c
}

// simKey memoises queueing simulations: plans that reduce to the same
// (rates, distribution, timeout) tuple — e.g. differing only in the
// partner's timeout — share one simulation. Float inputs are rounded to
// a 1e-4 grid after per-field scaling (see keyOf), so a cell also
// merges configs that are close but not identical, and answers every
// later lookup with the simulation of whichever config filled it first.
// On redis + social at ρ = 0.9, seed 1, the full 4294-plan sweep makes
// 8733 memo hits: 2630 of them return the simulation of a config whose
// raw inputs differ from the lookup's, and 3441 return one filled by a
// plan with another layout. Evaluate(p) therefore depends on what was
// evaluated before it: sweeping the same plans in reverse on a fresh
// Searcher changes 1676 of the 4294 evaluations. The order of lookups is
// part of the result, so sweep replays it on one goroutine and fans out
// only the simulations (DESIGN §11).
type simKey struct {
	arrival, baseMean, cv, timeout, boostRate int64
	servers, queries                          int
}

type simOut struct {
	mean, p95, boosted float64
}

func quant(v float64) int64 {
	if math.IsInf(v, 1) {
		return math.MaxInt64
	}
	return int64(math.Round(v * 1e4))
}

// keyOf returns the memo cell of a Stage-3 simulation config.
func keyOf(cfg queueing.Config) simKey {
	ln := cfg.Service.(stats.Lognormal)
	return simKey{
		arrival:   quant(cfg.Arrival.(stats.Exponential).Rate * 1e-3),
		baseMean:  quant(ln.Mu),
		cv:        quant(ln.Sigma),
		timeout:   quant(cfg.Timeout * 1e3),
		boostRate: quant(cfg.BoostRate),
		servers:   cfg.Servers,
		queries:   cfg.Queries,
	}
}

// discardedSims counts the speculative simulations a sweep ran but did
// not use (see sweep).
var discardedSims = obs.C("surrogate/discarded_sims")

// Searcher evaluates mask plans with the surrogate stack. Construct with
// New; methods are not safe for concurrent use (the simulation memo is a
// plain map). Each call fans its queueing simulations out over
// Config.Workers, and returns what evaluating its plans one by one
// through the memo returns, whatever the worker count.
type Searcher struct {
	cfg    Config
	models [2]*Model
	loads  [2]float64

	// baseline (no sharing: 2 private ways each, never boost) p95s.
	basePlan Plan
	baseP95  [2]float64

	memo    map[simKey]simOut
	simRuns int
	// sims holds one simulator per worker. All simulations use seed 1
	// and the same draw kinds, so after its first run a simulator only
	// transforms its kept standard variates.
	sims []*queueing.Simulator
}

// servers is the per-service parallelism of the evaluation conditions.
const servers = 2

// New builds the surrogate searcher: two miss-ratio curves (exact or
// sampled), two anchored models, and the no-sharing baseline prediction.
func New(cfg Config) (*Searcher, error) {
	cfg = cfg.defaults()
	if cfg.LoadA <= 0 || cfg.LoadA >= 1 || cfg.LoadB <= 0 || cfg.LoadB >= 1 {
		return nil, fmt.Errorf("surrogate: loads (%v, %v) outside (0,1)", cfg.LoadA, cfg.LoadB)
	}
	s := &Searcher{cfg: cfg, loads: [2]float64{cfg.LoadA, cfg.LoadB}, memo: map[simKey]simOut{}}
	// The two services' models are independent, so they are built side
	// by side, each NewModel fanning out its own anchor calibrations.
	// Service A's failure is reported before B's, as a serial build
	// meets them.
	kernels := [2]workload.Kernel{cfg.KernelA, cfg.KernelB}
	err := par.ForEach(cfg.Workers, 2, func(i int) error {
		curve, err := kernelCurve(cfg, i, kernels[i])
		if err != nil {
			return err
		}
		s.models[i], err = NewModel(cfg.Processor, kernels[i], curve, ModelConfig{Seed: cfg.Seed, workers: cfg.Workers})
		return err
	})
	if err != nil {
		return nil, err
	}

	// The Figure 8 baseline: the default symmetric layout with boosting
	// disabled — each service confined to its 2 private ways.
	s.basePlan = Plan{PrivA: 2, PrivB: 2, Shared: 2,
		TimeoutA: testbed.NeverBoost, TimeoutB: testbed.NeverBoost}
	base, err := s.sweep([]Plan{s.basePlan})
	if err != nil {
		return nil, fmt.Errorf("surrogate: baseline prediction: %w", err)
	}
	s.baseP95 = base[0].P95
	return s, nil
}

// kernelCurve builds service i's miss-ratio curve, of kernel k, from the
// source cfg selects: representative intervals, SHARDS sampling or the
// exact Mattson pass.
func kernelCurve(cfg Config, i int, k workload.Kernel) (mrc.CapacityCurve, error) {
	switch {
	case cfg.Intervals != nil:
		ic := *cfg.Intervals
		ic.Seed = cfg.Seed + uint64(i)*101
		if ic.LineSize == 0 {
			ic.LineSize = testbed.LineSize
		}
		return SelectIntervals(k.NewPattern(0), cfg.Accesses, ic)
	case cfg.Sampler != nil:
		sc := *cfg.Sampler
		if sc.LineSize == 0 {
			sc.LineSize = testbed.LineSize
		}
		sc.Seed = cfg.Seed + uint64(i)*101
		set, err := mrc.NewSampledSet(sc, 4)
		if err != nil {
			return nil, err
		}
		mrc.IngestPattern(set, k.NewPattern(0), cfg.Accesses, 13)
		return set.Curve(), nil
	default:
		return mrc.KernelCurve(k, testbed.LineSize, cfg.Accesses, 13)
	}
}

// Models exposes the per-service analytical models (A, B).
func (s *Searcher) Models() [2]*Model { return s.models }

// SimRuns reports how many queueing simulations the evaluations needed:
// the memo misses, each one fresh simulation in a one-by-one sweep — the
// honest denominator for plans-per-simulation claims. The speculative
// simulations a parallel sweep discards are not counted here; the
// surrogate/discarded_sims counter reports them.
func (s *Searcher) SimRuns() int { return s.simRuns }

// EnumeratePlans generates the exhaustive plan space: every asymmetric
// chain layout using all of the processor's ways (privA ≥ 1, privB ≥ 1,
// shared ≥ 0, privA+shared+privB = ways) crossed with the timeout grid.
// On the 20-way default platform that is 171 shared layouts × 25 timeout
// pairs + 19 fully-private layouts = 4294 plans.
func (s *Searcher) EnumeratePlans() []Plan {
	ways := s.cfg.Processor.Ways
	var plans []Plan
	for privA := 1; privA <= ways-1; privA++ {
		for privB := 1; privA+privB <= ways; privB++ {
			shared := ways - privA - privB
			if shared == 0 {
				// No shared span: boosting is a no-op, a single timeout
				// pair represents the layout.
				plans = append(plans, Plan{PrivA: privA, PrivB: privB, Shared: 0,
					TimeoutA: testbed.NeverBoost, TimeoutB: testbed.NeverBoost})
				continue
			}
			for _, ta := range s.cfg.Grid {
				for _, tb := range s.cfg.Grid {
					plans = append(plans, Plan{PrivA: privA, PrivB: privB, Shared: shared,
						TimeoutA: ta, TimeoutB: tb})
				}
			}
		}
	}
	return plans
}

// Evaluate predicts one plan's response times and speedups.
func (s *Searcher) Evaluate(p Plan) (Evaluation, error) {
	evs, err := s.sweep([]Plan{p})
	if err != nil {
		return Evaluation{}, err
	}
	return evs[0], nil
}

// Search evaluates every plan and returns them ranked by predicted score
// (best first, deterministic tie-break on the plan fields).
func (s *Searcher) Search(plans []Plan) ([]Evaluation, error) {
	out, err := s.sweep(plans)
	if err != nil {
		return nil, err
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		a, b := out[i].Plan, out[j].Plan
		if a.PrivA != b.PrivA {
			return a.PrivA < b.PrivA
		}
		if a.PrivB != b.PrivB {
			return a.PrivB < b.PrivB
		}
		if a.TimeoutA != b.TimeoutA {
			return a.TimeoutA < b.TimeoutA
		}
		return a.TimeoutB < b.TimeoutB
	})
	return out, nil
}

// planConfigs returns one pass of a plan's Stage-3 simulations, service
// A's and then service B's, given each service's boosted fraction from
// the previous pass. It is pure: a plan's first pass, at zero boosted
// fractions, depends on nothing but the plan.
//
// Contention enters in three places, mirroring the testbed: (1) memory
// bandwidth pressure from the partner's miss traffic inflates memory
// latency — crucially the traffic is computed at each service's
// *boost-weighted* average allocation, because a partner that boosts
// often misses far less and so presses far less (this coupling is what
// makes aggressively boosting a cache-hungry neighbour profitable, as
// the testbed shows); (2) the partner's boosted fraction discounts the
// shared span's effective capacity during this service's boosts (both
// boost masks overlap the shared ways); (3) the boost-phase rate
// multiplier feeds the timeout-triggered queueing simulation. The
// boosted fractions come from the simulation itself, so a plan is
// predicted in two passes: pass 1 assumes unboosted, uncontended
// services, pass 2 re-simulates with the partner's simulated boost
// fraction feeding both the capacity discount and the pressure fixed
// point.
func (s *Searcher) planConfigs(p Plan, boostFrac [2]float64) [2]queueing.Config {
	priv := [2]int{p.PrivA, p.PrivB}
	timeouts := [2]float64{p.TimeoutA, p.TimeoutB}

	// (1) Bandwidth pressure fixed point at the boost-weighted average
	// allocation. Pressure changes execution speed, which changes miss
	// traffic; two sweeps from zero converge well within the model's
	// accuracy (the cap at 2 mirrors the testbed).
	var pressure [2]float64
	var avgLines [2]float64
	for i := 0; i < 2; i++ {
		effShared := float64(p.Shared) * (1 - 0.5*boostFrac[1-i])
		avgLines[i] = (float64(priv[i]) + boostFrac[i]*effShared) * float64(s.models[i].linesPerWay)
	}
	for iter := 0; iter < 2; iter++ {
		var traffic [2]float64
		for i := 0; i < 2; i++ {
			traffic[i] = s.models[i].memTrafficAtLines(avgLines[i], pressure[i], s.loads[i], servers)
		}
		for i := 0; i < 2; i++ {
			pr := traffic[1-i] / s.cfg.Processor.MemBandwidthCap
			if pr > 2 {
				pr = 2
			}
			pressure[i] = pr
		}
	}

	var cfgs [2]queueing.Config
	for i := 0; i < 2; i++ {
		m := s.models[i]
		// Solo expected service time at the plan's default span — the
		// quantity that normalises timeouts and arrival rates in the
		// testbed (calibrated without contention).
		exp := m.ServiceTime(priv[i], 0)
		baseMean := m.ServiceTime(priv[i], pressure[i])

		// (2) Effective boost span: the shared ways discounted by the
		// partner's overlapping boost occupancy.
		effShared := float64(p.Shared) * (1 - 0.5*boostFrac[1-i])
		boostLines := int(math.Round((float64(priv[i]) + effShared) * float64(m.linesPerWay)))
		boostMean := m.serviceTimeAtLines(boostLines, pressure[i])
		boostRate := baseMean / boostMean
		if boostRate < 1 {
			boostRate = 1 // extra ways never hurt in the analytical model
		}

		timeout := timeouts[i] * exp
		if math.IsInf(timeouts[i], 1) {
			timeout = math.Inf(1)
		}
		cfgs[i] = queueing.Config{
			Servers:   servers,
			Arrival:   stats.Exponential{Rate: s.loads[i] * servers / exp},
			Service:   stats.LognormalFromMeanCV(baseMean, m.ServiceCV()),
			Timeout:   timeout,
			BoostRate: boostRate,
			Queries:   s.cfg.SimQueries,
			Warmup:    s.cfg.SimQueries / 10,
			Seed:      1,
		}
	}
	return cfgs
}

// simJob is one simulation a sweep runs: the memo cell it fills, the
// config that fills it, and its outcome once done.
type simJob struct {
	key  simKey
	cfg  queueing.Config
	out  simOut
	done bool
}

// sweep evaluates plans in order and returns exactly what evaluating
// them one by one through the memo returns — two passes of planConfigs
// per plan, service A before B, each config answered by its memo cell
// or simulated on a miss. Every evaluation goes through it: New's
// baseline, Evaluate and Search.
//
// A plan's second pass depends on the boosted fractions its first pass
// looked up, and any lookup may fill a cell that later lookups of either
// pass are answered from. sweep therefore keeps the lookups in order on
// the calling goroutine and fans out only the simulations:
//
//  1. Simulate, in parallel, every first-pass cell not yet in the memo,
//     from the first config in plan order that maps to it.
//  2. Replay the lookups in order. A first-pass miss takes its
//     simulation from step 1. A second-pass miss claims its cell and
//     defers its simulation. A first-pass lookup of a cell that an
//     earlier second-pass lookup claimed runs that claim's simulation on
//     the spot, as the one-by-one sweep would, and step 1's simulation
//     of the cell is discarded.
//  3. Run the deferred simulations in parallel. Their results feed only
//     the evaluations.
//
// The memo ends as the one-by-one sweep leaves it, at any worker count.
func (s *Searcher) sweep(plans []Plan) ([]Evaluation, error) {
	// A one-by-one sweep stops at the first invalid plan.
	var planErr error
	for j, p := range plans {
		if err := s.validatePlan(p); err != nil {
			plans, planErr = plans[:j], fmt.Errorf("surrogate: plan %v: %w", p, err)
			break
		}
	}

	// Step 1. firstKeys[j] holds plan j's first-pass cells.
	firstKeys := make([][2]simKey, len(plans))
	var spec []simJob
	specAt := map[simKey]int{}
	for j, p := range plans {
		for i, cfg := range s.planConfigs(p, [2]float64{}) {
			k := keyOf(cfg)
			firstKeys[j][i] = k
			if _, ok := s.memo[k]; ok {
				continue
			}
			if _, ok := specAt[k]; !ok {
				specAt[k] = len(spec)
				spec = append(spec, simJob{key: k, cfg: cfg})
			}
		}
	}
	if err := s.simulate(spec); err != nil {
		return nil, err
	}

	// Step 2. second[j][i] indexes plan j's deferred simulation for
	// service i, or is -1 when the memo answered.
	var deferred []simJob
	claimed := map[simKey]int{}
	second := make([][2]int, len(plans))
	evs := make([]Evaluation, len(plans))
	for j, p := range plans {
		var frac [2]float64
		for i, k := range firstKeys[j] {
			out, ok := s.memo[k]
			if !ok {
				if d, ok := claimed[k]; ok {
					if err := s.simulate(deferred[d : d+1]); err != nil {
						return nil, err
					}
					out = deferred[d].out
					discardedSims.Inc()
				} else {
					out = spec[specAt[k]].out
					s.simRuns++
				}
				s.memo[k] = out
			}
			frac[i] = out.boosted
		}
		evs[j].Plan = p
		for i, cfg := range s.planConfigs(p, frac) {
			k := keyOf(cfg)
			if out, ok := s.memo[k]; ok {
				evs[j].set(i, out)
				second[j][i] = -1
				continue
			}
			d, ok := claimed[k]
			if !ok {
				d = len(deferred)
				claimed[k] = d
				deferred = append(deferred, simJob{key: k, cfg: cfg})
				s.simRuns++
			}
			second[j][i] = d
		}
	}

	// Step 3.
	if err := s.simulate(deferred); err != nil {
		return nil, err
	}
	for _, job := range deferred {
		s.memo[job.key] = job.out
	}
	for j := range evs {
		ev := &evs[j]
		for i, d := range second[j] {
			if d >= 0 {
				ev.set(i, deferred[d].out)
			}
		}
		for i := 0; i < 2; i++ {
			ev.Speedup[i] = s.baseP95[i] / ev.P95[i]
		}
		ev.Score = math.Sqrt(ev.Speedup[0] * ev.Speedup[1])
	}
	return evs, planErr
}

// set records service i's simulated outcome.
func (ev *Evaluation) set(i int, out simOut) {
	ev.Mean[i] = out.mean
	ev.P95[i] = out.p95
	ev.BoostedFrac[i] = out.boosted
}

// simulate runs every job not yet done, in parallel over the configured
// workers, each worker on its own simulator.
func (s *Searcher) simulate(jobs []simJob) error {
	// Read GOMAXPROCS once: every worker index the fan-out hands out
	// must have a simulator, even if GOMAXPROCS changes meanwhile.
	workers := min(par.Workers(s.cfg.Workers), len(jobs))
	for len(s.sims) < workers {
		s.sims = append(s.sims, queueing.NewSimulator())
	}
	return par.ForEachWorker(workers, len(jobs), func(w, i int) error {
		job := &jobs[i]
		if job.done {
			return nil
		}
		res, err := s.sims[w].Run(job.cfg)
		if err != nil {
			return err
		}
		job.out = simOut{mean: res.MeanResponse(), p95: res.P95Response(), boosted: res.BoostedFrac}
		job.done = true
		return nil
	})
}

func (s *Searcher) validatePlan(p Plan) error {
	if p.PrivA < 1 || p.PrivB < 1 || p.Shared < 0 {
		return fmt.Errorf("surrogate: bad plan spans [%d|%d|%d]", p.PrivA, p.Shared, p.PrivB)
	}
	if p.PrivA+p.Shared+p.PrivB > s.cfg.Processor.Ways {
		return fmt.Errorf("surrogate: plan uses %d ways, processor has %d",
			p.PrivA+p.Shared+p.PrivB, s.cfg.Processor.Ways)
	}
	if p.TimeoutA < 0 || p.TimeoutB < 0 {
		return fmt.Errorf("surrogate: negative timeout")
	}
	return nil
}

// Validated pairs a surrogate evaluation with testbed ground truth.
type Validated struct {
	Evaluation
	// MeasuredP95 and MeasuredSpeedup come from full packed-simulator
	// runs of the plan (and the shared no-sharing baseline).
	MeasuredP95     [2]float64
	MeasuredSpeedup [2]float64
	MeasuredScore   float64
}

// Validate re-runs the top k ranked evaluations (and the no-sharing
// baseline) through the full testbed and returns them with measured
// speedups, in the surrogate's rank order. queries controls run length
// (0 = the testbed default). The k+1 runs are independent and fan out
// over the configured workers.
func (s *Searcher) Validate(ranked []Evaluation, k, queries int) ([]Validated, error) {
	if k < 0 {
		return nil, fmt.Errorf("surrogate: cannot validate the top %d plans", k)
	}
	if k > len(ranked) {
		k = len(ranked)
	}
	conds := []testbed.Condition{s.Condition(s.basePlan, queries)}
	for _, ev := range ranked[:k] {
		conds = append(conds, s.Condition(ev.Plan, queries))
	}
	runs, err := testbed.RunBatch(s.cfg.Workers, conds)
	if err != nil {
		return nil, fmt.Errorf("surrogate: validation: %w", err)
	}
	baseP95, err := measuredP95(runs[0])
	if err != nil {
		return nil, fmt.Errorf("surrogate: baseline validation: %w", err)
	}
	out := make([]Validated, 0, k)
	for r, ev := range ranked[:k] {
		p95, err := measuredP95(runs[r+1])
		if err != nil {
			return nil, fmt.Errorf("surrogate: validating %v: %w", ev.Plan, err)
		}
		v := Validated{Evaluation: ev, MeasuredP95: p95}
		for i := 0; i < 2; i++ {
			v.MeasuredSpeedup[i] = baseP95[i] / p95[i]
		}
		v.MeasuredScore = math.Sqrt(v.MeasuredSpeedup[0] * v.MeasuredSpeedup[1])
		out = append(out, v)
	}
	return out, nil
}

// Condition materialises a plan as a full testbed condition — the exact
// configuration Validate measures.
func (s *Searcher) Condition(p Plan, queries int) testbed.Condition {
	cond := testbed.Condition{
		Processor: s.cfg.Processor,
		Services: []testbed.ServiceSpec{
			{Kernel: s.cfg.KernelA, Load: s.loads[0], Timeout: p.TimeoutA},
			{Kernel: s.cfg.KernelB, Load: s.loads[1], Timeout: p.TimeoutB},
		},
		Seed: s.cfg.Seed + 900001,
	}.Defaults()
	// Layout fields are set after Defaults: a zero shared span is a valid
	// plan (boosting is a no-op), not a request for the default width.
	cond.PrivateWaysBySvc = []int{p.PrivA, p.PrivB}
	cond.SharedWays = p.Shared
	if queries > 0 {
		cond.QueriesPerService = queries
	}
	return cond
}

// measuredP95 returns a complete testbed run's per-service p95s.
func measuredP95(run *testbed.RunResult) ([2]float64, error) {
	if err := run.RequireComplete(); err != nil {
		return [2]float64{}, err
	}
	var out [2]float64
	for i := 0; i < 2; i++ {
		out[i] = run.Services[i].P95Response()
		if out[i] <= 0 {
			return [2]float64{}, fmt.Errorf("surrogate: degenerate measured p95 for service %d", i)
		}
	}
	return out, nil
}

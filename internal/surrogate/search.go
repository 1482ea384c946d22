package surrogate

import (
	"fmt"
	"math"
	"sort"

	"stac/internal/mrc"
	"stac/internal/par"
	"stac/internal/policy"
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
	// Seed drives the anchor calibrations, the service CVs and the
	// validation runs; the curves and the sweep's simulations use fixed
	// seeds.
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
	return c
}

// simQueries is the Stage-3 simulation length per plan evaluation.
const simQueries = 1500

// simKey is a memo cell: a Stage-3 simulation config rounded to a 1e-4
// grid after per-field scaling (see keyOf). Plans that reduce to the
// same cell, e.g. differing only in the partner's timeout, share one
// simulation. Each cell is simulated at its own grid point (config),
// whichever plan reaches it, so its answer depends only on its key and
// Evaluate(p) only on p (DESIGN §11).
type simKey struct {
	arrival, baseMean, cv, timeout, boostRate int64
	queries                                   int
}

type simOut struct {
	mean, p95, boosted float64
}

// never is the grid value of an infinite timeout (testbed.NeverBoost).
const never = math.MaxInt64

func quant(v float64) int64 {
	if math.IsInf(v, 1) {
		return never
	}
	return int64(math.Round(v * 1e4))
}

func unquant(q int64) float64 {
	if q == never {
		return math.Inf(1)
	}
	return float64(q) / 1e4
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
		queries:   cfg.Queries,
	}
}

// config is keyOf's inverse: the simulation config at the cell's grid
// point. Every sweep simulation runs testbed.DefaultCoresPerService
// servers, uses seed 1 and warms up on a tenth of its queries.
func (k simKey) config() queueing.Config {
	return queueing.Config{
		Servers:   testbed.DefaultCoresPerService,
		Arrival:   stats.Exponential{Rate: unquant(k.arrival) * 1e3},
		Service:   stats.Lognormal{Mu: unquant(k.baseMean), Sigma: unquant(k.cv)},
		Timeout:   unquant(k.timeout) / 1e3,
		BoostRate: unquant(k.boostRate),
		Queries:   k.queries,
		Warmup:    k.queries / 10,
		Seed:      1,
	}
}

// Searcher evaluates mask plans with the surrogate stack. Construct with
// New; methods are not safe for concurrent use (the simulation memo is a
// plain map). Each call fans its queueing simulations out over
// Config.Workers. An evaluation depends only on its plan: not on the
// worker count, nor on what the searcher evaluated before.
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

// New builds the surrogate searcher: two exact miss-ratio curves, two
// anchored models, and the no-sharing baseline prediction.
func New(cfg Config) (*Searcher, error) {
	cfg = cfg.defaults()
	// Negated so that NaN loads fail too.
	if !(cfg.LoadA > 0 && cfg.LoadA < 1 && cfg.LoadB > 0 && cfg.LoadB < 1) {
		return nil, fmt.Errorf("surrogate: loads (%v, %v) outside (0,1)", cfg.LoadA, cfg.LoadB)
	}
	s := &Searcher{cfg: cfg, loads: [2]float64{cfg.LoadA, cfg.LoadB}, memo: map[simKey]simOut{}}
	// The two services' models are independent, so they are built side
	// by side, each NewModel fanning out its own anchor calibrations.
	// Service A's failure is reported before B's, as a serial build
	// meets them.
	kernels := [2]workload.Kernel{cfg.KernelA, cfg.KernelB}
	err := par.ForEach(cfg.Workers, 2, func(i int) error {
		curve, err := mrc.KernelCurve(kernels[i], testbed.LineSize, cfg.Accesses, 13)
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

// SimRuns reports how many queueing simulations the evaluations ran, one
// per memo cell — the honest denominator for plans-per-simulation
// claims.
func (s *Searcher) SimRuns() int { return s.simRuns }

// EnumeratePlans generates the exhaustive plan space: every asymmetric
// chain layout using all of the processor's ways (privA ≥ 1, privB ≥ 1,
// shared ≥ 0, privA+shared+privB = ways) crossed with the paper's
// timeout grid (policy.TimeoutGrid, §5.2). On the 20-way default
// platform that is 171 shared layouts × 25 timeout pairs + 19
// fully-private layouts = 4294 plans.
func (s *Searcher) EnumeratePlans() []Plan {
	ways := s.cfg.Processor.Ways
	grid := policy.TimeoutGrid()
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
			for _, ta := range grid {
				for _, tb := range grid {
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

// planConfigs returns one pass of a plan's Stage-3 simulation inputs,
// service A's and then service B's, given each service's boosted
// fraction from the previous pass; keyOf maps each to its memo cell. It
// is pure: a plan's first pass, at zero boosted fractions, depends on
// nothing but the plan.
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
			traffic[i] = s.models[i].memTrafficAtLines(avgLines[i], pressure[i], s.loads[i])
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
			Servers:   testbed.DefaultCoresPerService,
			Arrival:   stats.Exponential{Rate: s.loads[i] * testbed.DefaultCoresPerService / exp},
			Service:   stats.LognormalFromMeanCV(baseMean, m.ServiceCV()),
			Timeout:   timeout,
			BoostRate: boostRate,
			Queries:   simQueries,
		}
	}
	return cfgs
}

// sweep evaluates plans in order: two passes of planConfigs per plan,
// service A before B, each config answered by its memo cell. Every
// evaluation goes through it: New's baseline, Evaluate and Search. The
// first pass runs at zero boosted fractions, so its cells depend only on
// the plans; the second pass reads its fractions from the first pass's
// cells. Each pass fills its missing cells in parallel before the next
// reads them.
func (s *Searcher) sweep(plans []Plan) ([]Evaluation, error) {
	for _, p := range plans {
		if err := s.validatePlan(p); err != nil {
			return nil, fmt.Errorf("surrogate: plan %v: %w", p, err)
		}
	}
	keys := make([][2]simKey, len(plans))
	for pass := 0; pass < 2; pass++ {
		for j, p := range plans {
			var frac [2]float64
			if pass > 0 {
				frac = [2]float64{s.memo[keys[j][0]].boosted, s.memo[keys[j][1]].boosted}
			}
			for i, cfg := range s.planConfigs(p, frac) {
				keys[j][i] = keyOf(cfg)
				// A cell without arrivals simulates no queries, and
				// every p95, speedup and score built on it is NaN.
				if keys[j][i].arrival == 0 {
					return nil, fmt.Errorf("surrogate: plan %v: service %c's arrival rate %.3g/s rounds to zero on the simulation grid",
						p, 'A'+i, cfg.Arrival.(stats.Exponential).Rate)
				}
			}
		}
		if err := s.fill(keys); err != nil {
			return nil, err
		}
	}
	evs := make([]Evaluation, len(plans))
	for j, p := range plans {
		ev := &evs[j]
		ev.Plan = p
		for i, k := range keys[j] {
			out := s.memo[k]
			ev.Mean[i], ev.P95[i], ev.BoostedFrac[i] = out.mean, out.p95, out.boosted
			ev.Speedup[i] = s.baseP95[i] / out.p95
		}
		ev.Score = math.Sqrt(ev.Speedup[0] * ev.Speedup[1])
	}
	return evs, nil
}

// fill simulates every distinct cell of keys that the memo lacks, each at
// its own grid config, in parallel over the configured workers, each
// worker on its own simulator.
func (s *Searcher) fill(keys [][2]simKey) error {
	var todo []simKey
	queued := map[simKey]bool{}
	for _, pair := range keys {
		for _, k := range pair {
			if _, ok := s.memo[k]; !ok && !queued[k] {
				queued[k] = true
				todo = append(todo, k)
			}
		}
	}
	// Read GOMAXPROCS once: every worker index the fan-out hands out
	// must have a simulator, even if GOMAXPROCS changes meanwhile.
	workers := min(par.Workers(s.cfg.Workers), len(todo))
	for len(s.sims) < workers {
		s.sims = append(s.sims, queueing.NewSimulator())
	}
	outs := make([]simOut, len(todo))
	err := par.ForEachWorker(workers, len(todo), func(w, i int) error {
		res, err := s.sims[w].Run(todo[i].config())
		if err != nil {
			return err
		}
		outs[i] = simOut{mean: res.MeanResponse(), p95: res.P95Response(), boosted: res.BoostedFrac}
		return nil
	})
	if err != nil {
		return err
	}
	for i, k := range todo {
		s.memo[k] = outs[i]
	}
	s.simRuns += len(todo)
	return nil
}

func (s *Searcher) validatePlan(p Plan) error {
	if p.PrivA < 1 || p.PrivB < 1 || p.Shared < 0 {
		return fmt.Errorf("surrogate: bad plan spans [%d|%d|%d]", p.PrivA, p.Shared, p.PrivB)
	}
	if p.PrivA+p.Shared+p.PrivB > s.cfg.Processor.Ways {
		return fmt.Errorf("surrogate: plan uses %d ways, processor has %d",
			p.PrivA+p.Shared+p.PrivB, s.cfg.Processor.Ways)
	}
	// Written to reject NaN, which keyOf cannot round to a grid cell.
	if !(p.TimeoutA >= 0 && p.TimeoutB >= 0) {
		return fmt.Errorf("surrogate: timeouts (%v, %v) must be non-negative", p.TimeoutA, p.TimeoutB)
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

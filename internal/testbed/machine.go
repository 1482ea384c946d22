package testbed

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"stac/internal/cache"
	"stac/internal/cat"
	"stac/internal/counters"
	"stac/internal/obs"
	"stac/internal/par"
	"stac/internal/stats"
	"stac/internal/workload"
)

// exec is one in-flight query execution bound to a core.
type exec struct {
	query     workload.Query
	remaining int
	core      int
	coreIdx   int // index into the service's core list (selects pattern)
	start     float64
	clock     float64 // core-local absolute time
	boosted   bool
	done      bool

	trace       counters.Trace
	windowBusy  float64
	measuredIdx int // index into service.measured, -1 when unmeasured
}

// service is the runtime state of one collocated online service.
type service struct {
	spec        ServiceSpec
	name        string
	clos        int
	cores       []int
	defaultMask uint64
	boostMask   uint64
	boostRatio  float64

	source   workload.QuerySource
	patterns []workload.Pattern // one per core: process state persists
	rng      *stats.RNG

	// warmup/measure are the per-service query budgets: the condition's
	// uniform WarmupQueries/QueriesPerService for generated arrivals, or
	// (0, len(Schedule)) for externally routed schedules — every routed
	// query is measured, including the cold transient.
	warmup  int
	measure int

	queue   queryRing
	running []*exec // parallel to cores; nil = idle core
	boosted bool

	expService float64
	rate       float64

	// Cumulative derived counters (cycles, instructions, stalls).
	instr       float64
	busyCycles  float64
	stallCycles float64

	lastSnapshot counters.Sample
	// windowExecs holds the executions that ran during the current
	// counter window, in dispatch order. Order matters: window shares are
	// attributed with float sums, and iterating a map here would make the
	// low-order bits of every counter feature vary run to run.
	windowExecs []*exec

	completed   int
	measured    []QueryResult
	windowTrace counters.Trace
	queueDepths []float64

	// Memory-bandwidth contention state: EWMA of the service's LLC miss
	// rate (misses per simulated second) and the latency pressure other
	// services' traffic currently exerts on this one.
	lastMissCount uint64
	missRate      float64
	pressure      float64

	// tab caches the per-level {cycle cost, wall time, stall} triples for
	// the current (frequency, pressure) epoch — see costTab.
	tab costTab
}

// costTab precomputes, for one (sprint frequency, bandwidth pressure)
// epoch, the per-access quantities runExec derives per cache level. The
// three per-level values are pure functions of (freq, pressure), so
// evaluating them once per epoch instead of per access produces
// bit-identical sums: the entries are computed with exactly the
// expressions the per-access path used.
type costTab struct {
	valid    bool
	freq     float64
	pressure float64
	cost     [cache.LevelMemory + 1]float64 // core cycles charged per access
	dt       [cache.LevelMemory + 1]float64 // wall-clock seconds per access
	stall    [cache.LevelMemory + 1]float64 // stall cycles per access
}

// rebuild fills the table for the given epoch, mirroring the original
// per-access expression order exactly (same operations, same order —
// same bits).
func (t *costTab) rebuild(proc Processor, k workload.Kernel, freq, pressure float64) {
	lat := proc.Lat
	cps := proc.CyclesPerSecond
	for lvl := cache.LevelL1; lvl <= cache.LevelMemory; lvl++ {
		levelCost := lat.Cost(lvl)
		if lvl == cache.LevelMemory {
			levelCost *= 1 + pressure
			levelCost *= freq // constant seconds: cycles inflate with clock
		}
		cost := (k.ComputePerAccess + levelCost) / freq
		t.cost[lvl] = cost
		t.dt[lvl] = cost / cps
		t.stall[lvl] = levelCost - lat.L1Hit
	}
	t.valid, t.freq, t.pressure = true, freq, pressure
}

// Machine executes conditions. Construct with NewMachine or use the Run
// convenience wrapper.
type Machine struct {
	cond Condition
	h    *cache.Hierarchy
	svcs []*service
	rng  *stats.RNG

	// windowStart is the simulated time at which the current counter
	// window opened. Samples fire on quantum boundaries, so real window
	// spans differ from cond.SamplePeriod; bandwidth-style rates divide
	// by the real span, not the nominal period.
	windowStart float64
	windowSpans []float64

	// Event-calendar state: busyExecs counts in-flight executions across
	// all services and doneSvcs counts services that reached their query
	// budget, so the loop's completion check and idle detection are O(1)
	// instead of a scan per quantum.
	busyExecs int
	doneSvcs  int

	// lean mirrors cond.DisableCounterWindows: skip window sampling and
	// per-query counter attribution (see the Condition field's doc).
	lean bool

	// scratch recycles exec nodes (and their per-window trace backings)
	// across dispatches and, via scratchPool, across runs.
	scratch *runScratch
}

// runScratch holds reusable per-run allocation scratch. Pooled
// process-wide: a machine takes one on construction and donates it back
// when its run completes. Only memory is recycled — no simulation state
// crosses runs through the pool.
type runScratch struct {
	free []*exec
}

var scratchPool = sync.Pool{New: func() any { return &runScratch{} }}

// newExec returns a zeroed exec node, reusing a retired node's storage
// (including its trace backing array) when one is available.
func (m *Machine) newExec() *exec {
	sc := m.scratch
	if n := len(sc.free); n > 0 {
		e := sc.free[n-1]
		sc.free[n-1] = nil
		sc.free = sc.free[:n-1]
		trace := e.trace[:0]
		*e = exec{trace: trace}
		return e
	}
	return &exec{}
}

// retireExec recycles a finalised execution's node. Measured traces were
// donated to the result and must not be reused; warmup/overflow traces
// keep their backing.
func (m *Machine) retireExec(e *exec) {
	if e.measuredIdx >= 0 {
		e.trace = nil
	}
	m.scratch.free = append(m.scratch.free, e)
}

// Hierarchy exposes the machine's simulated cache hierarchy so callers
// can attach recorders (obs.CacheRecorder, differential event logs)
// before Run and audit per-level state afterwards.
func (m *Machine) Hierarchy() *cache.Hierarchy { return m.h }

// Run executes a condition from a cold machine and returns measurements.
func Run(cond Condition) (*RunResult, error) {
	m, err := NewMachine(cond)
	if err != nil {
		return nil, err
	}
	return m.Run()
}

// RunBatch executes independent conditions on up to workers goroutines
// (workers <= 0 uses GOMAXPROCS) and returns results in condition order.
// Each condition carries its own Seed, so every machine's RNG streams
// are fixed before dispatch and results are bit-identical regardless of
// worker count or scheduling — the property TestRunBitIdentical pins.
// The first error cancels remaining runs and is returned.
func RunBatch(workers int, conds []Condition) ([]*RunResult, error) {
	out := make([]*RunResult, len(conds))
	err := par.ForEach(workers, len(conds), func(i int) error {
		res, err := Run(conds[i])
		if err != nil {
			return fmt.Errorf("testbed: condition %d: %w", i, err)
		}
		out[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// NewMachine validates the condition, calibrates per-service expected
// service times and prepares the simulated hardware.
func NewMachine(cond Condition) (*Machine, error) {
	cond = cond.Defaults()
	if err := cond.Validate(); err != nil {
		return nil, err
	}
	masks, err := layoutMasks(cond)
	if err != nil {
		return nil, err
	}
	h, err := cache.NewHierarchy(cond.Processor.HierarchyConfig())
	if err != nil {
		return nil, err
	}
	m := &Machine{h: h}
	if err := m.init(cond, masks); err != nil {
		return nil, err
	}
	return m, nil
}

// Reset returns the machine to the state NewMachine(cond) would
// construct, reusing the arena-allocated cache hierarchy, the per-
// service ring queues, core slots and the exec scratch instead of
// rebuilding them. A reset machine's run is bit-identical to a fresh
// machine's (TestMachineResetEquivalence): the hierarchy reset restores
// every cache to its as-constructed state, RNG streams are reseeded in
// construction order, and all mutable per-service state is rebuilt.
// The condition may differ arbitrarily from the previous one — a new
// processor geometry falls back to allocating a fresh hierarchy. The
// fleet holds one persistent machine per node and resets it each epoch,
// which removes machine construction from the epoch hot path entirely.
// On error the machine is left in an undefined state and must be reset
// again (successfully) before the next Run.
func (m *Machine) Reset(cond Condition) error {
	cond = cond.Defaults()
	if err := cond.Validate(); err != nil {
		return err
	}
	masks, err := layoutMasks(cond)
	if err != nil {
		return err
	}
	if hc := cond.Processor.HierarchyConfig(); hc != m.h.Config() {
		h, err := cache.NewHierarchy(hc)
		if err != nil {
			return err
		}
		m.h = h
	} else {
		m.h.Reset()
	}
	return m.init(cond, masks)
}

// init (re)builds all mutable machine state for cond on top of a fresh
// or freshly-reset hierarchy. It is the single construction path behind
// NewMachine and Reset, so the two cannot drift: RNG splits, calibration
// seeds and per-service field initialisation happen in exactly one
// order.
func (m *Machine) init(cond Condition, masks []cat.MaskPolicy) error {
	// Drop leftover in-flight state from a previous (possibly truncated)
	// run before the service list is rebuilt.
	for _, s := range m.svcs {
		for i := range s.running {
			s.running[i] = nil
		}
		for i := range s.windowExecs {
			s.windowExecs[i] = nil
		}
		s.windowExecs = s.windowExecs[:0]
		s.queue.reset()
	}
	m.cond = cond
	m.lean = cond.DisableCounterWindows
	if m.rng == nil {
		m.rng = stats.NewRNG(cond.Seed)
	} else {
		m.rng.Reseed(cond.Seed)
	}
	if m.scratch == nil {
		m.scratch = scratchPool.Get().(*runScratch)
	}
	m.windowStart = 0
	m.windowSpans = m.windowSpans[:0]
	m.busyExecs = 0
	m.doneSvcs = 0

	// Calibrations are keyed on CalibrationSeed when set, so fleet epochs
	// that vary the run Seed per epoch still hit the process-wide memo.
	calSeed := cond.Seed
	if cond.CalibrationSeed != 0 {
		calSeed = cond.CalibrationSeed
	}
	prev := m.svcs
	m.svcs = m.svcs[:0]
	for i, spec := range cond.Services {
		pol := masks[i]
		base := uint64(i+1) << 32
		exp, err := CalibrateServiceTime(cond.Processor, spec.Kernel, pol.Default, base, calSeed+uint64(i)*7919)
		if err != nil {
			return err
		}
		if exp <= 0 {
			return fmt.Errorf("testbed: calibration of %s produced %v", spec.Kernel.Name, exp)
		}
		rate := spec.Load * float64(cond.CoresPerService) / exp
		var svc *service
		var cores []int
		var patterns []workload.Pattern
		var running []*exec
		var windowExecs []*exec
		var queue queryRing
		if i < len(prev) {
			// Reuse the previous service's slice backings and (reset) ring
			// buffer; every field is reassigned below, so no state leaks.
			svc = prev[i]
			cores, patterns = svc.cores[:0], svc.patterns[:0]
			windowExecs, queue = svc.windowExecs[:0], svc.queue
			if cap(svc.running) >= cond.CoresPerService {
				running = svc.running[:cond.CoresPerService]
				for c := range running {
					running[c] = nil
				}
			}
		} else {
			svc = &service{}
		}
		if running == nil {
			running = make([]*exec, cond.CoresPerService)
		}
		*svc = service{
			spec:        spec,
			name:        spec.Kernel.Name,
			clos:        i,
			cores:       cores,
			patterns:    patterns,
			defaultMask: pol.Default,
			boostMask:   pol.Boost,
			boostRatio:  maskRatio(pol),
			rng:         m.rng.Split(),
			expService:  exp,
			rate:        rate,
			warmup:      cond.WarmupQueries,
			measure:     cond.QueriesPerService,
			queue:       queue,
			running:     running,
			windowExecs: windowExecs,
		}
		for c := 0; c < cond.CoresPerService; c++ {
			svc.cores = append(svc.cores, i*cond.CoresPerService+c)
			svc.patterns = append(svc.patterns, spec.Kernel.NewPattern(base))
		}
		if spec.Schedule != nil {
			// Externally routed arrivals: the whole schedule is measured
			// (warmup 0 — cold transients are part of the signal a fleet
			// migration penalty must show). The rate estimate only scales
			// the simulated-time guard; make it generous enough that the
			// last arrival plus its service comfortably fits.
			n := len(spec.Schedule)
			svc.warmup, svc.measure = 0, n
			svc.rate = 1
			if n > 0 {
				span := spec.Schedule[n-1].Arrival + float64(n)*exp
				if span > 0 {
					svc.rate = float64(n) / span
				}
			}
			svc.source = workload.NewSchedule(spec.Schedule)
		} else {
			svc.source = workload.NewSource(spec.Kernel, stats.Exponential{Rate: rate}, m.rng.Split())
		}
		m.h.SetMask(svc.clos, pol.Default)
		m.svcs = append(m.svcs, svc)
	}
	return nil
}

// layoutMasks materialises per-service default/boost capacity bitmasks
// from the condition's layout: the paper's pairwise chain by default, or
// the non-contiguous shared pool when PoolSharing is set (an extension —
// real CAT rejects non-contiguous CBMs, but the simulated LLC does not).
func layoutMasks(cond Condition) ([]cat.MaskPolicy, error) {
	n := len(cond.Services)
	if cond.PoolSharing {
		pool := cond.SharedWays * (n - 1)
		if pool <= 0 {
			pool = cond.SharedWays
		}
		ml, err := cat.PlanPool(cond.Processor.Ways, n, cond.PrivateWays, pool)
		if err != nil {
			return nil, err
		}
		return ml.Policies, nil
	}
	privs := cond.PrivateWaysBySvc
	if privs == nil {
		privs = make([]int, n)
		for i := range privs {
			privs[i] = cond.PrivateWays
		}
	}
	layout, err := cat.PlanChainAsym(cond.Processor.Ways, privs, cond.SharedWays)
	if err != nil {
		return nil, err
	}
	out := make([]cat.MaskPolicy, n)
	for i, p := range layout.Policies {
		out[i] = cat.MaskPolicy{Default: p.Default.Mask(), Boost: p.Boost.Mask()}
	}
	return out, nil
}

// maskRatio is the gross allocation increase of a mask policy (Eq. 3's
// denominator) computed from way populations.
func maskRatio(p cat.MaskPolicy) float64 {
	d := bits.OnesCount64(p.Default)
	if d == 0 {
		return 0
	}
	return float64(bits.OnesCount64(p.Boost)) / float64(d)
}

// calKey fingerprints a calibration: the processor (comparable struct),
// the kernel's observable identity — name alone is not enough because
// workload.Kernel is a plain struct any caller can fill in under any
// name — and the exact allocation/addressing/seed inputs. Calibration is a pure function of
// these, so results are memoised process-wide: policy searches and
// repeated profiling runs re-derive the same expected service times for
// every condition they spawn, and the closed calibration loop is ~30 %
// of a cold machine construction.
type calKey struct {
	proc       Processor
	kernel     string
	desc       string
	pattern    string
	workingSet uint64
	cpa        float64
	demandMean float64
	mask       uint64
	base       uint64
	seed       uint64
}

var calCache sync.Map // calKey -> float64
var calCacheLen atomic.Int64

// calCacheMax bounds the memo: one entry per distinct (processor,
// kernel, mask, base, seed) fingerprint. Real campaigns need a few
// thousand at most (kernels × way counts × condition seeds); the cap
// only exists so a long-running process with adversarial seed churn
// cannot grow the map without bound.
const calCacheMax = 1 << 15

// CalibrateServiceTime measures the kernel's mean solo service time under
// its default allocation: a closed loop of queries on a single core with
// no collocated contention. This is the "expected service time" that
// normalises timeouts (Equation 4) and arrival rates. Hierarchy
// construction failures surface as errors rather than panics so callers
// probing unusual processor geometries can recover. Results are
// memoised on the full input fingerprint; a duplicate concurrent
// computation is harmless because calibration is deterministic.
func CalibrateServiceTime(proc Processor, k workload.Kernel, allocMask uint64, base uint64, seed uint64) (float64, error) {
	key := calKey{
		proc: proc, kernel: k.Name, desc: k.Description, pattern: k.CachePattern,
		workingSet: k.WorkingSet, cpa: k.ComputePerAccess, demandMean: k.Demand.Mean(),
		mask: allocMask, base: base, seed: seed,
	}
	if v, ok := calCache.Load(key); ok {
		obs.C("testbed/calibration_cache_hits").Inc()
		return v.(float64), nil
	}
	exp, err := calibrateUncached(proc, k, allocMask, base, seed)
	if err != nil {
		return 0, err
	}
	if calCacheLen.Load() < calCacheMax {
		if _, loaded := calCache.LoadOrStore(key, exp); !loaded {
			calCacheLen.Add(1)
		}
	}
	return exp, nil
}

// calibrateUncached is the computation behind CalibrateServiceTime,
// bypassing the memo. BenchmarkCalibrate measures this path directly:
// benchmarking through the memo with per-iteration seeds makes the
// measured cost collapse to a map hit on every b.N re-run, which sends
// the iteration-count ramp into multi-second overshoot.
func calibrateUncached(proc Processor, k workload.Kernel, allocMask uint64, base uint64, seed uint64) (float64, error) {
	obs.C("testbed/calibrations").Inc()
	h, err := cache.NewHierarchy(proc.HierarchyConfig())
	if err != nil {
		return 0, fmt.Errorf("testbed: calibration hierarchy: %w", err)
	}
	h.SetMask(0, allocMask)
	r := stats.NewRNG(seed)
	pat := k.NewPattern(base)
	const warm, measured = 15, 40
	var total float64
	for q := 0; q < warm+measured; q++ {
		demand := int(k.Demand.Sample(r))
		if demand < 1 {
			demand = 1
		}
		var t float64
		for i := 0; i < demand; i++ {
			a := pat.Next(r)
			lvl := h.Access(0, 0, a.Addr, a.Write)
			t += (k.ComputePerAccess + proc.Lat.Cost(lvl)) / proc.CyclesPerSecond
		}
		if q >= warm {
			total += t
		}
	}
	return total / measured, nil
}

// Run executes the condition until every service completes its measured
// query budget (or a generous simulated-time guard trips) and returns the
// results.
//
// The loop is organised around a small event calendar: the machine
// tracks in-flight executions (busyExecs), finished services (doneSvcs)
// and each source's next arrival epoch. While work is in flight it
// advances quantum by quantum exactly as before; when the machine goes
// fully idle it fast-forwards to the next arrival with the cheap path
// in idleQuantum, which performs only the per-quantum state evolution
// that is non-trivial on an idle machine (pressure EWMA decay and
// window sampling) and skips the admit/dispatch/boost/run/reap sweeps
// that provably cannot change state. Every quantum still elapses
// individually — `now` accumulates the same additions and the EWMA the
// same multiplies — so results are bit-identical to the plain sweep
// (TestGoldenRunTraces).
func (m *Machine) Run() (*RunResult, error) {
	cond := m.cond

	// Quantum: a small fraction of the fastest service so queries span
	// many quanta and LLC contention interleaves finely.
	minExp := math.Inf(1)
	for _, s := range m.svcs {
		minExp = math.Min(minExp, s.expService)
	}
	quantum := minExp / 64
	const nSub = 2

	// Simulated-time guard: the loosest per-service budget. Services with
	// an empty routed schedule have nothing to complete and count as done
	// from the start.
	maxSim := 0.0
	for _, s := range m.svcs {
		if s.warmup+s.measure == 0 {
			m.doneSvcs++
			continue
		}
		if b := maxSimFactor * float64(s.warmup+s.measure) / s.rate; b > maxSim {
			maxSim = b
		}
	}
	now := 0.0
	nextSample := cond.SamplePeriod
	rot := 0
	nSvcs := len(m.svcs)

	for now < maxSim && m.doneSvcs < nSvcs {
		// Idle fast-forward: nothing in flight, no boost pending release
		// and no arrival due — step the calendar to the next arrival.
		if m.busyExecs == 0 {
			idle := true
			nextArr := math.Inf(1)
			for _, s := range m.svcs {
				if s.boosted || s.queue.len() != 0 {
					idle = false
					break
				}
				if a := s.source.Peek().Arrival; a < nextArr {
					nextArr = a
				}
			}
			for idle && nextArr > now && now < maxSim {
				m.updatePressure(quantum)
				rot++
				now += quantum
				if !m.lean && now >= nextSample {
					m.closeWindow(now)
					nextSample += cond.SamplePeriod
				}
			}
			if now >= maxSim {
				break
			}
		}

		for _, s := range m.svcs {
			m.admit(s, now)
			m.dispatch(s, now)
			m.updateBoost(s, now)
		}
		m.updatePressure(quantum)

		// Execute the quantum in sub-slices, rotating service order so no
		// service systematically wins LLC races.
		for sub := 1; sub <= nSub; sub++ {
			sliceEnd := now + quantum*float64(sub)/nSub
			idx := rot % nSvcs
			for off := 0; off < nSvcs; off++ {
				s := m.svcs[idx]
				if idx++; idx == nSvcs {
					idx = 0
				}
				for _, e := range s.running {
					if e != nil && !e.done {
						m.runExec(s, e, sliceEnd)
					}
				}
			}
		}
		rot++

		for _, s := range m.svcs {
			m.reap(s)
		}

		now += quantum
		if !m.lean && now >= nextSample {
			m.closeWindow(now)
			nextSample += cond.SamplePeriod
		}
	}
	allDone := m.doneSvcs == nSvcs
	// Final flush so completed queries get their counter attribution.
	// When the loop just sampled (span zero) no counters have accrued:
	// appending another window would duplicate the last queue-depth entry
	// and record a meaningless all-zero delta, so only the pending
	// measured-query attribution is finalised. Lean runs track no
	// windows: reap already retired every finished execution.
	if !m.lean {
		if now > m.windowStart {
			m.closeWindow(now)
		} else {
			for _, s := range m.svcs {
				m.finalizeWindow(s)
			}
		}
	}

	if !allDone {
		obs.C("testbed/truncated_runs").Inc()
	}
	res := &RunResult{Condition: cond, SimTime: now, Truncated: !allDone}
	for _, s := range m.svcs {
		res.Services = append(res.Services, ServiceResult{
			Name:           s.name,
			Spec:           s.spec,
			ExpServiceTime: s.expService,
			Queries:        s.measured,
			WindowTrace:    s.windowTrace,
			WindowSpans:    append([]float64(nil), m.windowSpans...),
			QueueDepths:    s.queueDepths,
			BoostRatio:     s.boostRatio,
		})
	}
	m.publishMetrics(now)
	// Donate the allocation scratch back to the pool. A machine is
	// one-shot per Reset: dropping the reference makes accidental re-Run
	// without a Reset fail fast instead of corrupting a concurrent run,
	// and Reset re-acquires a scratch (typically this very one) from the
	// pool.
	scratchPool.Put(m.scratch)
	m.scratch = nil
	return res, nil
}

// maxSimFactor scales the simulated-time guard in Run: the loop aborts
// (marking the result Truncated) once now exceeds maxSimFactor × the
// time an unloaded machine would need for the query budget. Package
// variable so tests can force truncation without hour-long conditions.
var maxSimFactor = 40.0

// publishMetrics folds the finished run's cache accounting and query
// outcomes into the process-wide obs registry. Publication happens once
// per run as bulk adds from the simulator's own Stats — the per-access
// Recorder hook stays detached, so the hot path keeps its nil-recorder
// cost while `stac -metrics` snapshots still carry cache totals for
// every profiled condition. All metrics are sums/distributions over
// runs; the occupancy gauge reports the most recently finished run.
func (m *Machine) publishMetrics(simTime float64) {
	obs.C("testbed/runs").Inc()
	obs.H("testbed/sim_seconds").Observe(simTime)
	var l1, l2 cache.Stats
	for core := 0; core < len(m.svcs)*m.cond.CoresPerService; core++ {
		addStats(&l1, m.h.L1Stats(core))
		addStats(&l2, m.h.L2Stats(core))
	}
	publishLevel("cache/l1/", l1)
	publishLevel("cache/l2/", l2)
	respHist := obs.H("testbed/response_seconds")
	depthHist := obs.H("testbed/queue_depth")
	for _, s := range m.svcs {
		llc := m.h.LLC().Stats(s.clos)
		prefix := "cache/llc/svc/" + s.name + "/"
		publishLevel(prefix, llc)
		obs.G(prefix + "occupancy").Set(float64(m.h.LLC().Occupancy(s.clos)))
		obs.C("testbed/queries").Add(uint64(len(s.measured)))
		for _, q := range s.measured {
			respHist.Observe(q.Completion - q.Arrival)
		}
		for _, d := range s.queueDepths {
			depthHist.Observe(d)
		}
	}
}

func addStats(dst *cache.Stats, s cache.Stats) {
	dst.Loads += s.Loads
	dst.Stores += s.Stores
	dst.Hits += s.Hits
	dst.Misses += s.Misses
	dst.LoadMisses += s.LoadMisses
	dst.StoreMisses += s.StoreMisses
	dst.Installs += s.Installs
	dst.EvictionsCaused += s.EvictionsCaused
	dst.EvictionsSuffered += s.EvictionsSuffered
}

func publishLevel(prefix string, s cache.Stats) {
	obs.C(prefix + "hits").Add(s.Hits)
	obs.C(prefix + "misses").Add(s.Misses)
	obs.C(prefix + "installs").Add(s.Installs)
	obs.C(prefix + "evictions_caused").Add(s.EvictionsCaused)
	obs.C(prefix + "evictions_suffered").Add(s.EvictionsSuffered)
}

// admit moves arrived queries from the source into the proxy queue.
func (m *Machine) admit(s *service, now float64) {
	for s.source.Peek().Arrival <= now {
		s.queue.push(s.source.Pop())
	}
}

// dispatch starts queued queries on idle cores.
func (m *Machine) dispatch(s *service, now float64) {
	for ci, e := range s.running {
		if e != nil || s.queue.len() == 0 {
			continue
		}
		q := s.queue.pop()
		ne := m.newExec()
		ne.query = q
		ne.remaining = q.Accesses
		ne.core = s.cores[ci]
		ne.coreIdx = ci
		ne.start = now
		ne.clock = now
		ne.measuredIdx = -1
		s.running[ci] = ne
		if !m.lean {
			s.windowExecs = append(s.windowExecs, ne)
		}
		m.busyExecs++
	}
}

// updateBoost applies the short-term allocation policy: the service's CLOS
// switches to the boost setting while any in-flight execution has been in
// the system longer than timeout × expected service time, and back to the
// default once none has (Equation 4; §4: "if multiple queries were
// outstanding for the same online service, all had access").
func (m *Machine) updateBoost(s *service, now float64) {
	boost := false
	if !math.IsInf(s.spec.Timeout, 1) {
		thresh := s.spec.Timeout * s.expService
		for _, e := range s.running {
			if e != nil && !e.done && now-e.query.Arrival > thresh {
				boost = true
				break
			}
		}
	}
	if boost != s.boosted {
		s.boosted = boost
		if s.spec.Boost == BoostFrequency {
			return // frequency sprints leave the cache mask alone
		}
		if boost {
			m.h.SetMask(s.clos, s.boostMask)
		} else {
			m.h.SetMask(s.clos, s.defaultMask)
		}
	}
}

// updatePressure refreshes each service's miss-rate EWMA and the memory
// bandwidth pressure its neighbours exert on it. Misses travel to the
// shared memory controller regardless of CAT masks, so a streaming
// neighbour slows every collocated service's memory accesses.
func (m *Machine) updatePressure(quantum float64) {
	bwCap := m.cond.Processor.MemBandwidthCap
	if bwCap <= 0 {
		return
	}
	const ewma = 0.2
	llc := m.h.LLC()
	for _, s := range m.svcs {
		cur := llc.Misses(s.clos)
		rate := float64(cur-s.lastMissCount) / quantum
		s.lastMissCount = cur
		s.missRate = (1-ewma)*s.missRate + ewma*rate
	}
	for _, s := range m.svcs {
		others := 0.0
		for _, o := range m.svcs {
			if o != s {
				others += o.missRate
			}
		}
		p := others / bwCap
		if p > 2 {
			p = 2
		}
		s.pressure = p
	}
}

// runExec advances one execution until its core-local clock reaches the
// slice end or the query completes. Per-level costs come from the
// service's epoch table; the per-access work is one pattern step, one
// hierarchy access and five additions.
func (m *Machine) runExec(s *service, e *exec, until float64) {
	pat := s.patterns[e.coreIdx]
	// Frequency sprinting shrinks core-clocked work (compute and cache
	// hits) while boosted; memory time is clock-independent.
	freq := 1.0
	if s.boosted && (s.spec.Boost == BoostFrequency || s.spec.Boost == BoostBoth) {
		freq = m.cond.SprintFactor
	}
	if !s.tab.valid || s.tab.freq != freq || s.tab.pressure != s.pressure {
		s.tab.rebuild(m.cond.Processor, s.spec.Kernel, freq, s.pressure)
	}
	tab := &s.tab
	instrInc := 1 + s.spec.Kernel.ComputePerAccess
	rng := s.rng
	h := m.h
	clock, busy := e.clock, e.windowBusy
	busyCyc, stallCyc, instr := s.busyCycles, s.stallCycles, s.instr
	rem := e.remaining
	for clock < until && rem > 0 {
		a := pat.Next(rng)
		lvl := h.Access(e.core, s.clos, a.Addr, a.Write)
		dt := tab.dt[lvl]
		clock += dt
		busy += dt
		busyCyc += tab.cost[lvl]
		stallCyc += tab.stall[lvl]
		instr += instrInc
		rem--
	}
	e.clock, e.windowBusy, e.remaining = clock, busy, rem
	s.busyCycles, s.stallCycles, s.instr = busyCyc, stallCyc, instr
	if s.boosted {
		e.boosted = true
	}
	if rem == 0 {
		e.done = true
	}
}

// reap records completed executions and frees their cores.
func (m *Machine) reap(s *service) {
	warmup, measure := s.warmup, s.measure
	for ci, e := range s.running {
		if e == nil || !e.done {
			continue
		}
		s.running[ci] = nil
		s.completed++
		m.busyExecs--
		if s.completed == warmup+measure {
			m.doneSvcs++
		}
		if s.completed > warmup && len(s.measured) < measure {
			e.measuredIdx = len(s.measured)
			s.measured = append(s.measured, QueryResult{
				Arrival:    e.query.Arrival,
				Start:      e.start,
				Completion: e.clock,
				Boosted:    e.boosted,
			})
		}
		if m.lean {
			// No window attribution: the execution is finished the moment
			// it is reaped. Nothing was donated to the result, so the node
			// (and its trace backing) recycles unconditionally.
			e.measuredIdx = -1
			m.retireExec(e)
			continue
		}
		// Completed execs stay in windowExecs until the next sample so
		// their final window share is attributed.
	}
}

// snapshot computes the cumulative 29-counter state for a service.
func (m *Machine) snapshot(s *service) counters.Sample {
	var out counters.Sample
	for _, core := range s.cores {
		l1, l2 := m.h.CoreStats(core)
		out[counters.L1DLoads] += float64(l1.Loads)
		out[counters.L1DLoadMisses] += float64(l1.LoadMisses)
		out[counters.L1DStores] += float64(l1.Stores)
		out[counters.L1DStoreMisses] += float64(l1.StoreMisses)
		out[counters.L2Requests] += float64(l2.Accesses())
		out[counters.L2Loads] += float64(l2.Loads)
		out[counters.L2LoadMisses] += float64(l2.LoadMisses)
		out[counters.L2Stores] += float64(l2.Stores)
		out[counters.L2StoreMisses] += float64(l2.StoreMisses)
		out[counters.L2Installs] += float64(l2.Installs)
	}
	llc := m.h.LLC().Stats(s.clos)
	out[counters.LLCLoads] = float64(llc.Loads)
	out[counters.LLCLoadMisses] = float64(llc.LoadMisses)
	out[counters.LLCStores] = float64(llc.Stores)
	out[counters.LLCStoreMisses] = float64(llc.StoreMisses)
	out[counters.LLCAccesses] = float64(llc.Accesses())
	out[counters.LLCInstalls] = float64(llc.Installs)
	out[counters.LLCEvictionsCaused] = float64(llc.EvictionsCaused)
	out[counters.LLCEvictionsSuffered] = float64(llc.EvictionsSuffered)
	out[counters.MemReads] = float64(llc.LoadMisses)
	out[counters.MemWrites] = float64(llc.StoreMisses)
	out[counters.Instructions] = s.instr
	out[counters.Cycles] = s.busyCycles
	out[counters.StallCycles] = s.stallCycles
	// Instruction-side activity is synthesised: the simulator does not
	// model an instruction cache, but the counters exist on real hardware
	// and scale with retired instructions.
	out[counters.L1ILoads] = s.instr * 0.25
	out[counters.L1IMisses] = s.instr * 0.25 * 0.002
	return out
}

// closeWindow ends the counter window at simulated time now: every
// service samples its counters over the window and the next one starts.
func (m *Machine) closeWindow(now float64) {
	span := now - m.windowStart
	for _, s := range m.svcs {
		m.sample(s, span)
	}
	m.windowStart = now
	m.windowSpans = append(m.windowSpans, span)
}

// sample closes a counter window spanning `span` simulated seconds:
// compute the service-level delta, derive instantaneous counters,
// attribute shares to the executions that ran during the window and
// finalise measured queries that completed. Windows close on quantum
// boundaries, so span is the real elapsed time since the previous
// sample — generally a little over cond.SamplePeriod, and a whole
// quantum when the quantum exceeds the sampling period.
func (m *Machine) sample(s *service, span float64) {
	snap := m.snapshot(s)
	var delta counters.Sample
	for i := range delta {
		delta[i] = snap[i] - s.lastSnapshot[i]
	}
	s.lastSnapshot = snap

	if delta[counters.Cycles] > 0 {
		delta[counters.IPC] = delta[counters.Instructions] / delta[counters.Cycles]
	}
	delta[counters.MemBandwidth] = (delta[counters.MemReads] + delta[counters.MemWrites]) * LineSize / span
	delta[counters.LLCOccupancy] = float64(m.h.LLC().Occupancy(s.clos))
	delta[counters.QueueDepth] = float64(s.queue.len())

	s.windowTrace = append(s.windowTrace, delta)
	s.queueDepths = append(s.queueDepths, float64(s.queue.len()))

	var totalBusy float64
	for _, e := range s.windowExecs {
		totalBusy += e.windowBusy
	}
	keep := s.windowExecs[:0]
	for _, e := range s.windowExecs {
		if totalBusy > 0 && e.windowBusy > 0 {
			e.trace = append(e.trace, delta.Scale(e.windowBusy/totalBusy))
		}
		e.windowBusy = 0
		if e.done {
			m.finalizeExec(s, e)
			continue
		}
		keep = append(keep, e)
	}
	for i := len(keep); i < len(s.windowExecs); i++ {
		s.windowExecs[i] = nil
	}
	s.windowExecs = keep
}

// finalizeWindow completes pending measured-query attribution without
// opening a counter window: used by the final flush when the run ended
// exactly on a sample boundary and a zero-span window would otherwise
// be appended. Any execution still listed is done (the loop only exits
// with idle cores), already carries its full per-window trace, and just
// needs its aggregate published into s.measured.
func (m *Machine) finalizeWindow(s *service) {
	for i, e := range s.windowExecs {
		if e.done {
			m.finalizeExec(s, e)
		}
		s.windowExecs[i] = nil
	}
	s.windowExecs = s.windowExecs[:0]
}

// finalizeExec publishes a completed execution's attributed counter
// trace into its measured-query slot, if it has one, then recycles the
// node.
func (m *Machine) finalizeExec(s *service, e *exec) {
	if e.measuredIdx >= 0 {
		s.measured[e.measuredIdx].Counters = e.trace.Aggregate()
		s.measured[e.measuredIdx].Trace = e.trace
	}
	m.retireExec(e)
}

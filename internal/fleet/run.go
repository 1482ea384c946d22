package fleet

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"stac/internal/obs"
	"stac/internal/queueing"
	"stac/internal/stats"
	"stac/internal/testbed"
)

var (
	fleetRuns       = obs.C("fleet/runs")
	fleetEpochsDone = obs.C("fleet/epochs")
	fleetRouted     = obs.C("fleet/queries_routed")
	fleetMigrations = obs.C("fleet/migrations")
	fleetNodeRuns   = obs.C("fleet/node_runs")
	fleetTruncated  = obs.C("fleet/truncated_runs")
	fleetResets     = obs.C("fleet/machine_resets")
	// Speculation (pipeline.go): node runs started from a speculative
	// plan, and those of them whose results were thrown away. Only the
	// discarded ones add to testbed/runs beyond fleet/node_runs. How many
	// runs a worker starts before a discard depends on scheduling; the
	// plan counters, one per speculated and per discarded epoch, do not.
	fleetSpecRuns          = obs.C("fleet/speculative_runs")
	fleetSpecDiscards      = obs.C("fleet/speculative_discards")
	fleetSpecPlans         = obs.C("fleet/speculative_plans")
	fleetSpecPlansDiscards = obs.C("fleet/speculative_plans_discarded")
)

// state carries a fleet run between epochs.
type state struct {
	cfg     Config
	svcName []string // unique display names (kernel name, suffixed on collision)

	// Per-service invariants, fixed at setup.
	expRef     []float64 // reference solo service time (node 0, default span)
	demandMean []float64
	cv         []float64 // demand CV for the migrator's queueing model
	rate       []float64 // fleet-wide arrival rate at multiplier 1
	sla        []float64 // p95 target: slaFactor × expRef

	// Mutable cluster state.
	placement [][]int     // [svc] sorted hosting node indices
	draining  []bool      // [node]
	warmth    [][]float64 // [svc][node] LLC occupancy lines after last epoch
	cold      [][]int     // [node][svc] remaining cold-penalty queries
	meas      [][]float64 // [svc][node] last-epoch mean measured service time
	share     [][]float64 // [svc][node] last-epoch routed traffic share

	// Streams. Arrival RNGs are per-service and never consulted by the
	// router or migrator, so routing policy and migration decisions are
	// metamorphic: every policy sees the identical arrival stream.
	svcRNG  []*stats.RNG
	seedRNG *stats.RNG // per-(epoch,node) machine seeds, drawn sequentially
	router  *router
	qid     []int // per-service query id counter

	epochLen float64

	// Epoch pipeline (pipeline.go). The driver goroutine alone touches
	// these, except jobs, workers and stopping, which coordinate the
	// worker goroutines.
	draws      draws   // the last epoch drawn
	drawn      int     // epochs drawn so far
	pos        []int   // [svc] routing merge cursor
	plans      []*plan // released plans, reused by newPlan
	specRouter *router // speculative copy of router
	specCold   [][]int // speculative copy of cold
	jobs       chan job
	workers    sync.WaitGroup
	stopping   atomic.Bool

	// machines holds each node's idle testbed machines. A machine is
	// constructed when a run finds none idle and is Reset (arena
	// hierarchy, ring queues and scratch reused) for every later run.
	machMu   sync.Mutex
	machines [][]*testbed.Machine // [node]

	// msim is the migration model's buffer-reusing queueing simulator
	// (migrate.go), touched only from the driver goroutine.
	msim *queueing.Simulator

	// Accumulators. Each merged response is stored once, in (epoch,
	// node, service, query) order, tagged with its node and service;
	// per-node and per-service statistics filter respAll by tag, keeping
	// that order, so their float sums match separate copies.
	respAll     []float64
	respNode    []uint8
	respSvc     []uint8
	tagScratch  []float64   // tagged's result buffer
	epochP95    []float64   // fleet-wide p95, one entry per finished epoch
	epochSvcP95 [][]float64 // [svc][epoch]
	migrations  []MigrationEvent
	migCount    []int // per-service
	truncated   int
}

func newState(cfg Config) (*state, error) {
	nn, ns := len(cfg.Nodes), len(cfg.Services)
	st := &state{
		cfg:         cfg,
		svcName:     make([]string, ns),
		expRef:      make([]float64, ns),
		demandMean:  make([]float64, ns),
		cv:          make([]float64, ns),
		rate:        make([]float64, ns),
		sla:         make([]float64, ns),
		placement:   make([][]int, ns),
		draining:    make([]bool, nn),
		warmth:      make([][]float64, ns),
		cold:        make([][]int, nn),
		meas:        make([][]float64, ns),
		share:       make([][]float64, ns),
		svcRNG:      make([]*stats.RNG, ns),
		qid:         make([]int, ns),
		pos:         make([]int, ns),
		specRouter:  newRouter(cfg, new(stats.RNG)),
		specCold:    make([][]int, nn),
		machines:    make([][]*testbed.Machine, nn),
		msim:        queueing.NewSimulator(),
		epochP95:    make([]float64, 0, cfg.Epochs),
		epochSvcP95: make([][]float64, ns),
		migCount:    make([]int, ns),
	}
	st.draws = draws{arrivals: make([][]arrival, ns), seeds: make([]uint64, nn)}
	kernelCount := map[string]int{}
	for _, s := range cfg.Services {
		kernelCount[s.Kernel.Name]++
	}
	root := stats.NewRNG(cfg.Seed)
	st.router = newRouter(cfg, root.Split())
	st.seedRNG = root.Split()
	for i, s := range cfg.Services {
		st.svcName[i] = s.Kernel.Name
		if kernelCount[s.Kernel.Name] > 1 {
			st.svcName[i] = fmt.Sprintf("%s-%d", s.Kernel.Name, i)
		}
		// The solo time on the reference node (node 0) at its configured
		// span converts Load into a fleet-wide arrival rate and anchors
		// the SLA, wherever the service runs.
		exp, err := st.soloOn(i, 0, cfg.Nodes[0].PrivateWays)
		if err != nil {
			return nil, err
		}
		st.expRef[i] = exp
		st.demandMean[i] = s.Kernel.Demand.Mean()
		st.cv[i] = s.Kernel.DemandCV(cfg.Seed + uint64(i)*6151 + 13)
		st.sla[i] = slaFactor * exp
		st.warmth[i] = make([]float64, nn)
		st.meas[i] = make([]float64, nn)
		st.share[i] = make([]float64, nn)
		st.epochSvcP95[i] = make([]float64, 0, cfg.Epochs)
		st.svcRNG[i] = root.Split()
	}
	for n := range cfg.Nodes {
		st.cold[n] = make([]int, ns)
		st.specCold[n] = make([]int, ns)
	}
	if err := st.place(); err != nil {
		return nil, err
	}
	// Load is per-replica utilisation at rate multiplier 1, anchored to
	// the initial placement's aggregate core provision: a replica on a
	// node that provisions more cores per service absorbs proportionally
	// more traffic.
	for i, s := range cfg.Services {
		cores := 0
		for _, n := range st.placement[i] {
			cores += cfg.Nodes[n].CoresPerService
		}
		st.rate[i] = s.Load * float64(cores) / st.expRef[i]
	}
	for i := range cfg.Services {
		if l := float64(cfg.EpochQueries) / st.rate[i]; l > st.epochLen {
			st.epochLen = l
		}
	}
	return st, nil
}

// place computes the initial placement: pinned services go to their
// named nodes; the rest spread over the least-occupied feasible nodes.
func (st *state) place() error {
	hosted := make([]int, len(st.cfg.Nodes))
	nodeIdx := map[string]int{}
	for i, n := range st.cfg.Nodes {
		nodeIdx[n.Name] = i
	}
	for i, s := range st.cfg.Services {
		for _, nm := range s.Nodes {
			n := nodeIdx[nm]
			st.placement[i] = append(st.placement[i], n)
			hosted[n]++
		}
	}
	for i, s := range st.cfg.Services {
		for len(st.placement[i]) < s.Replicas {
			best := -1
			for n, spec := range st.cfg.Nodes {
				if containsInt(st.placement[i], n) {
					continue
				}
				priv, shared := st.cfg.nodePlan(0, n)
				if !layoutFits(spec, priv, shared, hosted[n]+1) {
					continue
				}
				if best < 0 || hosted[n] < hosted[best] {
					best = n
				}
			}
			if best < 0 {
				return fmt.Errorf("fleet: no feasible node for service %s replica %d",
					st.svcName[i], len(st.placement[i]))
			}
			st.placement[i] = append(st.placement[i], best)
			hosted[best]++
		}
		sort.Ints(st.placement[i])
	}
	return nil
}

// Run executes the fleet simulation.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	st, err := newState(cfg)
	if err != nil {
		return nil, err
	}
	defer obs.Span("fleet/run")()
	fleetRuns.Inc()
	st.startWorkers()
	defer st.stopWorkers()
	var spec *plan
	for e := 0; e < cfg.Epochs; e++ {
		if spec, err = st.epoch(e, spec); err != nil {
			return nil, err
		}
	}
	return st.finish(), nil
}

// epoch runs epoch e with at most two epochs in flight. spec is e's
// speculative plan, queued while e-1 ran, or nil; epoch returns e+1's.
func (st *state) epoch(e int, spec *plan) (*plan, error) {
	defer obs.Span("fleet/epoch")()
	fleetEpochsDone.Inc()

	// Drain takes effect at the start of its epoch: the node stops
	// receiving traffic and its services are force-migrated first.
	if st.cfg.DrainNode != "" && e == st.cfg.DrainEpoch {
		if err := st.drain(e); err != nil {
			return nil, err
		}
	}

	// Route e for real on the live router and cold-penalty state, after
	// the previous epoch's migrator and this epoch's drain. Keep the
	// speculative runs only if the real plan asks for exactly them.
	cur := st.routePlan(e, st.router, st.cold)
	fleetRouted.Add(uint64(cur.routed))
	if spec != nil && spec.sameInputs(cur) {
		st.release(cur)
		cur = spec
	} else {
		if spec != nil {
			st.discard(spec)
		}
		st.submit(cur)
	}

	// While e runs, speculate e+1 under the current placement.
	var next *plan
	if st.speculates(e + 1) {
		next = st.speculate(e + 1)
	}

	<-cur.done
	err := st.merge(cur)
	st.release(cur)
	if err != nil {
		return nil, err
	}

	// Let the migrator adjust placement for the next epoch.
	if st.cfg.Migrate && e+1 < st.cfg.Epochs {
		if err := st.migrate(e); err != nil {
			return nil, err
		}
	}
	st.dropEmptyNodes()
	return next, nil
}

// merge folds a finished plan into the run in deterministic (node,
// service, query) order. A failed node run fails the run; the lowest
// node's error is reported.
func (st *state) merge(p *plan) error {
	for n := range p.runs {
		if nr := &p.runs[n]; nr.active && nr.err != nil {
			return nr.err
		}
	}
	for i := range st.cfg.Services {
		total := 0
		for n := range st.cfg.Nodes {
			st.warmth[i][n] = 0
			st.meas[i][n] = 0
			st.share[i][n] = 0
			total += len(p.sched[n][i])
		}
		if total > 0 {
			for n := range st.cfg.Nodes {
				st.share[i][n] = float64(len(p.sched[n][i])) / float64(total)
			}
		}
	}
	start := len(st.respAll)
	for n := range p.runs {
		nr := &p.runs[n]
		if !nr.active {
			continue
		}
		fleetNodeRuns.Inc()
		if nr.truncated {
			st.truncated++
			fleetTruncated.Inc()
		}
		lo := 0
		for j, i := range nr.hosted {
			out := nr.out[j]
			st.respAll = append(st.respAll, nr.resp[lo:out.end]...)
			for range out.end - lo {
				st.respNode = append(st.respNode, uint8(n))
				st.respSvc = append(st.respSvc, uint8(i))
			}
			lo = out.end
			st.meas[i][n] = out.meanService
			st.warmth[i][n] = out.occupancy
		}
	}
	st.epochP95 = append(st.epochP95, p95OrZero(st.respAll[start:]))
	for i := range st.cfg.Services {
		st.epochSvcP95[i] = append(st.epochSvcP95[i], p95OrZero(st.tagged(start, st.respSvc, i)))
	}
	return nil
}

// tagged returns, in merge order, the responses from index start on
// whose tag is v. The slice is reused by the next call.
func (st *state) tagged(start int, tags []uint8, v int) []float64 {
	out := st.tagScratch[:0]
	for k, t := range tags[start:] {
		if int(t) == v {
			out = append(out, st.respAll[start+k])
		}
	}
	st.tagScratch = out
	return out
}

func (st *state) finish() *Result {
	out := &Result{
		Policy:     st.cfg.Policy.String(),
		Epochs:     st.cfg.Epochs,
		EpochLen:   st.epochLen,
		Queries:    len(st.respAll),
		FleetMean:  meanOrZero(st.respAll),
		FleetP95:   p95OrZero(st.respAll),
		Truncated:  st.truncated,
		Migrations: st.migrations,
		responses:  st.respAll,
	}
	if out.Migrations == nil {
		out.Migrations = []MigrationEvent{}
	}
	out.EpochP95 = append(out.EpochP95, st.epochP95...)
	for n, spec := range st.cfg.Nodes {
		resp := st.tagged(0, st.respNode, n)
		nr := NodeResult{
			Name:       spec.Name,
			Queries:    len(resp),
			Mean:       meanOrZero(resp),
			P95:        p95OrZero(resp),
			MaxBacklog: st.router.maxBacklog[n],
			Routed:     map[string]int{},
		}
		for i := range st.cfg.Services {
			if c := st.router.picks[i][n]; c > 0 {
				nr.Routed[st.svcName[i]] = c
			}
		}
		out.Nodes = append(out.Nodes, nr)
	}
	for i := range st.cfg.Services {
		resp := st.tagged(0, st.respSvc, i)
		sr := ServiceResult{
			Name:       st.svcName[i],
			Queries:    len(resp),
			Mean:       meanOrZero(resp),
			P95:        p95OrZero(resp),
			SLA:        st.sla[i],
			EpochP95:   st.epochSvcP95[i],
			Migrations: st.migCount[i],
		}
		for _, n := range st.placement[i] {
			sr.FinalNodes = append(sr.FinalNodes, st.cfg.Nodes[n].Name)
		}
		out.Services = append(out.Services, sr)
	}
	return out
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

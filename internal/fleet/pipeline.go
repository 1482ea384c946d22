package fleet

import (
	"fmt"
	"slices"
	"sync/atomic"

	"stac/internal/par"
	"stac/internal/stats"
	"stac/internal/testbed"
	"stac/internal/workload"
)

// The epoch pipeline. Every epoch simulates its nodes from cold machines,
// so epoch e+1's node runs depend on epoch e only through the router and
// the migrator. While epoch e's runs execute, the driver routes e+1 on a
// copy of the router and cold-penalty state under the current placement
// and queues those runs behind e's on the same workers. Once e has merged
// and the migrator (and any drain) has run, e+1 is routed for real on the
// live state; the speculative runs are kept only if every node's inputs
// came out identical, otherwise they are dropped and the real plan runs.
// Results therefore never depend on the guess.

// draws holds what one epoch takes from the run's persistent streams:
// every service's arrivals and every node's machine seed. Neither depends
// on any result, so an epoch's draws are taken once, by whichever of its
// speculative or real routing comes first.
type draws struct {
	arrivals [][]arrival // [svc]
	seeds    []uint64    // [node]
}

// arrival is one generated query awaiting its routing decision.
type arrival struct {
	svc int
	q   workload.Query
}

// plan is one epoch's routed work: per-node schedules, the node runs
// built from them and, once the runs finish, their outputs. Plans are
// pooled. At most three are in use at once: the running epoch's, the
// next epoch's speculative one and, while it is being validated, the
// next epoch's real one. A discarded plan leaves the pool and lives only
// until its started runs finish.
type plan struct {
	epoch  int
	spec   bool                 // routed speculatively (immutable while queued)
	routed int                  // queries routed
	sched  [][][]workload.Query // [node][svc] routed schedules
	runs   []nodeRun            // [node]

	pending atomic.Int32  // queued or running node runs
	done    chan struct{} // closed when pending reaches zero
}

// Node-run states. A queued run is claimed by exactly one of a worker
// (started) or a discard (cancelled).
const (
	runQueued int32 = iota
	runStarted
	runCancelled
)

// nodeRun is one node's slot in a plan.
type nodeRun struct {
	// Inputs, fixed before the run is queued. cond is built only for
	// active nodes.
	active   bool
	hosted   []int // hosted service indices, ascending
	cond     testbed.Condition
	condSvcs []testbed.ServiceSpec // backing for cond.Services

	state atomic.Int32

	// Outputs, written by the worker that ran it.
	err       error
	truncated bool
	resp      []float64 // response times, hosted services concatenated
	out       []svcOut  // [j] per hosted service
	svcTimes  []float64 // service-time scratch
}

// svcOut is what the merge reads of one hosted service's run.
type svcOut struct {
	end         int     // end offset of the service's responses in resp
	meanService float64 // mean measured service time (0 without completions)
	occupancy   float64 // terminal LLC occupancy, lines
}

// job is one node run of a plan, queued on the run's workers.
type job struct {
	p    *plan
	node int
}

// drawsFor returns epoch e's draws, taking them on first use. e is the
// last epoch drawn or the next one: an epoch's real routing comes
// before the next epoch's speculation, so one slot suffices.
func (st *state) drawsFor(e int) *draws {
	d := &st.draws
	if e < st.drawn {
		return d
	}
	st.drawn++
	for i, s := range st.cfg.Services {
		d.arrivals[i] = d.arrivals[i][:0]
		r := st.rate[i] * s.rateAt(e)
		if r <= 0 {
			continue
		}
		inter := stats.Exponential{Rate: r}
		t := 0.0
		for {
			t += inter.Sample(st.svcRNG[i])
			if t >= st.epochLen {
				break
			}
			acc := int(st.cfg.Services[i].Kernel.Demand.Sample(st.svcRNG[i]))
			if acc < 1 {
				acc = 1
			}
			d.arrivals[i] = append(d.arrivals[i], arrival{
				svc: i,
				q:   workload.Query{ID: st.qid[i], Arrival: t, Accesses: acc},
			})
			st.qid[i]++
		}
	}
	// Seeds are drawn for every node, even ones that will not run, so
	// the stream stays aligned regardless of which nodes run.
	for n := range d.seeds {
		d.seeds[n] = st.seedRNG.Uint64()
	}
	return d
}

// routePlan routes epoch e through r and cold into a pooled plan and
// builds its node runs under the current placement.
func (st *state) routePlan(e int, r *router, cold [][]int) *plan {
	d := st.drawsFor(e)
	p := st.newPlan(e)
	p.routed = st.route(p, d, r, cold)
	st.build(p, d)
	return p
}

// route sends the epoch's arrivals through r in global arrival order
// (k-way merge, ties to the lower service index) into p's schedules —
// a single deterministic sequential pass. A query landing on a node
// still cold for its service has its demand inflated, decaying linearly
// over the first coldQueries queries there.
func (st *state) route(p *plan, d *draws, r *router, cold [][]int) int {
	for n := range p.sched {
		for i := range p.sched[n] {
			p.sched[n][i] = p.sched[n][i][:0]
		}
	}
	pos := st.pos
	clear(pos)
	routed := 0
	for {
		best := -1
		for i := range d.arrivals {
			if pos[i] >= len(d.arrivals[i]) {
				continue
			}
			if best < 0 || d.arrivals[i][pos[i]].q.Arrival < d.arrivals[best][pos[best]].q.Arrival {
				best = i
			}
		}
		if best < 0 {
			return routed
		}
		a := d.arrivals[best][pos[best]]
		pos[best]++
		work := st.expRef[a.svc] * float64(a.q.Accesses) / st.demandMean[a.svc]
		n := r.route(a.svc, a.q.Arrival, st.placement[a.svc], st.warmth[a.svc], work)
		if c := cold[n][a.svc]; c > 0 {
			factor := 1 + (coldPenalty-1)*float64(c)/float64(coldQueries)
			a.q.Accesses = int(float64(a.q.Accesses) * factor)
			cold[n][a.svc] = c - 1
		}
		p.sched[n][a.svc] = append(p.sched[n][a.svc], a.q)
		routed++
	}
}

// build fills p's node runs from its schedules.
func (st *state) build(p *plan, d *draws) {
	for n, spec := range st.cfg.Nodes {
		nr := &p.runs[n]
		nr.err = nil
		nr.active = false
		nr.hosted = nr.hosted[:0]
		queries := 0
		for i := range st.cfg.Services {
			if containsInt(st.placement[i], n) {
				nr.hosted = append(nr.hosted, i)
				queries += len(p.sched[n][i])
			}
		}
		if len(nr.hosted) == 0 || queries == 0 {
			continue
		}
		svcSpecs := nr.condSvcs[:0]
		for _, i := range nr.hosted {
			qs := p.sched[n][i]
			if qs == nil {
				qs = []workload.Query{}
			}
			svcSpecs = append(svcSpecs, testbed.ServiceSpec{
				Kernel:   st.cfg.Services[i].Kernel,
				Timeout:  testbed.NeverBoost,
				Schedule: qs,
			})
		}
		nr.condSvcs = svcSpecs
		priv, shared := st.cfg.nodePlan(p.epoch, n)
		nr.cond = testbed.Condition{
			Processor:       spec.Processor,
			Services:        svcSpecs,
			PrivateWays:     priv,
			SharedWays:      shared,
			CoresPerService: spec.CoresPerService,
			Seed:            d.seeds[n],
			CalibrationSeed: st.cfg.Seed + uint64(n)*104729 + 1,
		}.Defaults()
		nr.active = true
	}
}

// sameInputs reports whether q's node runs are exactly p's: per node, the
// same active flag and hosted services and, for an active node, the same
// CAT plan and seed, and the same schedules (every query's ID, arrival
// and demand). Everything else in a node's condition comes from the
// configuration.
func (p *plan) sameInputs(q *plan) bool {
	for n := range p.runs {
		a, b := &p.runs[n], &q.runs[n]
		if a.active != b.active || !slices.Equal(a.hosted, b.hosted) {
			return false
		}
		if a.active && (a.cond.PrivateWays != b.cond.PrivateWays ||
			a.cond.SharedWays != b.cond.SharedWays || a.cond.Seed != b.cond.Seed) {
			return false
		}
		for i := range p.sched[n] {
			if !slices.Equal(p.sched[n][i], q.sched[n][i]) {
				return false
			}
		}
	}
	return true
}

// speculates reports whether epoch e may be routed ahead of the
// migrator: not past the run, not under Locality (its routes read the
// warmth the previous epoch is still producing) and not the drain epoch
// (the drain always changes the placement).
func (st *state) speculates(e int) bool {
	return e < st.cfg.Epochs && st.cfg.Policy != Locality &&
		!(st.cfg.DrainNode != "" && e == st.cfg.DrainEpoch)
}

// speculate routes epoch e on copies of the live router and cold-penalty
// state and queues its node runs.
func (st *state) speculate(e int) *plan {
	st.specRouter.copyFrom(st.router)
	for n := range st.cold {
		copy(st.specCold[n], st.cold[n])
	}
	p := st.routePlan(e, st.specRouter, st.specCold)
	p.spec = true
	fleetSpecPlans.Inc()
	st.submit(p)
	return p
}

// newPlan returns a released plan, or a new one.
func (st *state) newPlan(e int) *plan {
	var p *plan
	if k := len(st.plans); k > 0 {
		p, st.plans = st.plans[k-1], st.plans[:k-1]
	} else {
		nn, ns := len(st.cfg.Nodes), len(st.cfg.Services)
		p = &plan{sched: make([][][]workload.Query, nn), runs: make([]nodeRun, nn)}
		for n := range p.sched {
			p.sched[n] = make([][]workload.Query, ns)
		}
	}
	p.epoch, p.spec = e, false
	return p
}

// release returns a plan with no queued or running node runs to the pool.
func (st *state) release(p *plan) { st.plans = append(st.plans, p) }

// discard drops a speculative plan the real routing did not reproduce:
// its queued runs are cancelled, and its running ones finish on their
// own and are ignored. The plan is never reused, so those runs may keep
// writing to it.
func (st *state) discard(p *plan) {
	fleetSpecPlansDiscards.Inc()
	for n := range p.runs {
		if nr := &p.runs[n]; nr.active && !nr.state.CompareAndSwap(runQueued, runCancelled) {
			fleetSpecDiscards.Inc()
		}
	}
}

// startWorkers starts the goroutines that execute node runs: at most
// Workers, and no more than two epochs' worth of nodes.
func (st *state) startWorkers() {
	nn := len(st.cfg.Nodes)
	// Two epochs' node runs fit, so queueing a plan rarely blocks the
	// driver; when it does, it waits only for a worker to take a run.
	st.jobs = make(chan job, 2*nn)
	for range min(par.Workers(st.cfg.Workers), 2*nn) {
		st.workers.Add(1)
		go func() {
			defer st.workers.Done()
			for j := range st.jobs {
				st.work(j)
			}
		}()
	}
}

// stopWorkers skips every run still queued (speculative work after an
// error), waits for the running ones and stops the workers.
func (st *state) stopWorkers() {
	st.stopping.Store(true)
	close(st.jobs)
	st.workers.Wait()
}

// submit queues p's active node runs in node order.
func (st *state) submit(p *plan) {
	active := 0
	for n := range p.runs {
		if p.runs[n].active {
			active++
		}
	}
	p.done = make(chan struct{})
	p.pending.Store(int32(active))
	if active == 0 {
		close(p.done)
		return
	}
	for n := range p.runs {
		if nr := &p.runs[n]; nr.active {
			nr.state.Store(runQueued)
			st.jobs <- job{p: p, node: n}
		}
	}
}

func (st *state) work(j job) {
	p := j.p
	nr := &p.runs[j.node]
	if !st.stopping.Load() && nr.state.CompareAndSwap(runQueued, runStarted) {
		if p.spec {
			fleetSpecRuns.Inc()
		}
		nr.err = st.runNode(p.epoch, j.node, nr)
	}
	if p.pending.Add(-1) == 0 {
		close(p.done)
	}
}

// runNode executes one node run on an idle machine of the node and keeps
// what the merge reads: per hosted service, the response times, the mean
// service time and the terminal LLC occupancy.
func (st *state) runNode(e, n int, nr *nodeRun) error {
	m, err := st.machine(n, nr.cond)
	if err != nil {
		return fmt.Errorf("fleet: epoch %d node %s: %w", e, st.cfg.Nodes[n].Name, err)
	}
	defer st.idle(n, m)
	res, err := m.Run()
	if err != nil {
		return fmt.Errorf("fleet: epoch %d node %s: %w", e, st.cfg.Nodes[n].Name, err)
	}
	nr.truncated = res.Truncated
	nr.resp, nr.out = nr.resp[:0], nr.out[:0]
	for j := range res.Services {
		nr.svcTimes = nr.svcTimes[:0]
		for _, q := range res.Services[j].Queries {
			nr.resp = append(nr.resp, q.Response())
			nr.svcTimes = append(nr.svcTimes, q.ServiceTime())
		}
		nr.out = append(nr.out, svcOut{
			end:         len(nr.resp),
			meanService: stats.Mean(nr.svcTimes),
			occupancy:   float64(res.Services[j].OccupancyLines),
		})
	}
	return nil
}

// machine returns one of node n's idle machines reset to cond, or a new
// machine when all of them are busy: a node runs in at most two epochs
// at once, so it owns only a few. A reset machine runs bit-identically
// to a fresh one (testbed.TestMachineResetEquivalence).
func (st *state) machine(n int, cond testbed.Condition) (*testbed.Machine, error) {
	st.machMu.Lock()
	var m *testbed.Machine
	if k := len(st.machines[n]); k > 0 {
		m, st.machines[n] = st.machines[n][k-1], st.machines[n][:k-1]
	}
	st.machMu.Unlock()
	if m == nil {
		return testbed.NewMachine(cond)
	}
	if err := m.Reset(cond); err != nil {
		return nil, err // a failed Reset leaves m unusable; drop it
	}
	fleetResets.Inc()
	return m, nil
}

// idle returns node n's machine to its free list, unless one is idle
// already: a second machine is only worth its memory while two of the
// node's runs overlap.
func (st *state) idle(n int, m *testbed.Machine) {
	st.machMu.Lock()
	if len(st.machines[n]) == 0 {
		st.machines[n] = append(st.machines[n], m)
	}
	st.machMu.Unlock()
}

// dropEmptyNodes lets go of the idle machines of nodes that host no
// service, which would otherwise stay live for the rest of the run.
func (st *state) dropEmptyNodes() {
	st.machMu.Lock()
	for n := range st.machines {
		if st.hostedCount(n) == 0 {
			st.machines[n] = nil
		}
	}
	st.machMu.Unlock()
}

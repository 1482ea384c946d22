package fleet

import (
	"fmt"
	"math"

	"stac/internal/cat"
	"stac/internal/queueing"
	"stac/internal/stats"
	"stac/internal/testbed"
)

// migrateImprovement is how much better (multiplicatively) a candidate's
// predicted p95 must be before an SLA-triggered move is taken — moves
// are not free (cold-cache penalty), so marginal wins are declined.
const migrateImprovement = 0.7

// predictQueries sizes the migrator's queueing simulations: enough for a
// stable p95, small enough that a decision costs well under a
// millisecond.
const (
	predictQueries = 600
	predictWarmup  = 60
)

// mix folds values into a decision-local seed, so migrator simulations
// never touch the run's arrival or machine seed streams.
func mix(vals ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 29
	}
	if h == 0 {
		h = 1
	}
	return h
}

// soloKey identifies a solo calibration. The epoch enters only through
// the node plan's private span, so the span itself is the key — under a
// Rollout the same (svc, node) legitimately recalibrates when the plan
// flips.
type soloKey struct {
	svc, node, priv int
}

// soloOn returns the service's calibrated solo service time on a node
// under its current-plan private span. Calibration is deterministic in
// (service, node, span), so results are memoised for the run's lifetime;
// repeat calls cost a map lookup instead of a cache-simulation sweep.
func (st *state) soloOn(svc, node, epoch int) (float64, error) {
	priv, _ := st.cfg.nodePlan(epoch, node)
	key := soloKey{svc: svc, node: node, priv: priv}
	if exp, ok := st.soloMemo[key]; ok {
		return exp, nil
	}
	spec := st.cfg.Nodes[node]
	mask := cat.Setting{Offset: 0, Length: priv}.Mask()
	exp, err := testbed.CalibrateServiceTime(spec.Processor, st.cfg.Services[svc].Kernel,
		mask, uint64(svc+1)<<32, st.cfg.Seed+uint64(svc)*7919)
	if err != nil {
		return 0, fmt.Errorf("fleet: calibrating %s on %s: %w", st.svcName[svc], spec.Name, err)
	}
	st.soloMemo[key] = exp
	return exp, nil
}

// muEstimate predicts the service's mean service time on a node for the
// next epoch. With a measurement from the current node, the measured
// contention factor (measured / solo) is transplanted onto the
// candidate's solo calibration; without one (e.g. a drain before any
// traffic) the candidate's solo time is inflated by a per-hosted-service
// contention increment.
func (st *state) muEstimate(svc, from, to, epoch int, hostedOnTo int) (float64, error) {
	soloTo, err := st.soloOn(svc, to, epoch+1)
	if err != nil {
		return 0, err
	}
	if from >= 0 && st.meas[svc][from] > 0 {
		soloFrom, err := st.soloOn(svc, from, epoch)
		if err != nil {
			return 0, err
		}
		if soloFrom > 0 {
			return soloTo * (st.meas[svc][from] / soloFrom), nil
		}
	}
	return soloTo * (1 + 0.1*float64(hostedOnTo)), nil
}

// predKey identifies one migration prediction within a decision pass.
// The epoch is deliberately absent: it feeds only the simulation seed,
// and the memo is cleared at the start of every migrate/drain pass, so
// a single epoch value is in play for a memo's whole lifetime.
type predKey struct {
	svc, node int
	mu, rate  uint64 // math.Float64bits
	cold      bool
}

// predictP95 runs the migrator's queueing model: a G/G/k FCFS
// simulation at the replica's next-epoch arrival rate with the
// estimated mean service time and the service's demand CV. Identical
// questions within one decision pass — the same candidate node judged
// for several replicas at the same estimated mu and rate — are answered
// from the pass-local memo instead of re-simulating.
func (st *state) predictP95(svc, node, epoch int, mu, rate float64, cold bool) float64 {
	if rate <= 0 || mu <= 0 {
		return 0
	}
	key := predKey{
		svc: svc, node: node,
		mu: math.Float64bits(mu), rate: math.Float64bits(rate),
		cold: cold,
	}
	if p, ok := st.predMemo[key]; ok {
		return p
	}
	if cold {
		// Amortise the cold-cache demand inflation over the queries of
		// one epoch.
		expected := rate * st.epochLen
		frac := 1.0
		if expected > coldQueries {
			frac = coldQueries / expected
		}
		mu *= 1 + (coldPenalty-1)*frac
	}
	cv := st.cv[svc]
	if cv <= 0 {
		cv = 0.3
	}
	// st.msim reuses its buffers across predictions; migrate/drain run
	// single-threaded on the epoch driver, so one simulator suffices.
	res, err := st.msim.Run(queueing.Config{
		Servers:   st.cfg.Nodes[node].CoresPerService,
		Arrival:   stats.Exponential{Rate: rate},
		Service:   stats.LognormalFromMeanCV(mu, cv),
		Timeout:   math.Inf(1),
		BoostRate: 1,
		Queries:   predictQueries,
		Warmup:    predictWarmup,
		Seed:      mix(st.cfg.Seed, uint64(epoch+1), uint64(svc+1), uint64(node+1)),
	})
	p := math.Inf(1)
	if err == nil {
		p = res.P95Response()
	}
	st.predMemo[key] = p
	return p
}

// hostedCount returns how many services a node hosts.
func (st *state) hostedCount(node int) int {
	c := 0
	for i := range st.cfg.Services {
		if containsInt(st.placement[i], node) {
			c++
		}
	}
	return c
}

// canHost reports whether a node can accept one more service at an
// epoch: not draining, not already hosting it, and the grown layout
// still fits cores and CAT ways.
func (st *state) canHost(svc, node, epoch int) bool {
	if st.draining[node] || containsInt(st.placement[svc], node) {
		return false
	}
	priv, shared := st.cfg.nodePlan(epoch, node)
	return layoutFits(st.cfg.Nodes[node], priv, shared, st.hostedCount(node)+1)
}

// move relocates one replica of svc from one node to another.
func (st *state) move(svc, from, to, epoch int, reason string, predFrom, predTo float64) {
	out := st.placement[svc][:0]
	removed := false
	for _, n := range st.placement[svc] {
		if n == from && !removed {
			removed = true
			continue
		}
		out = append(out, n)
	}
	st.placement[svc] = insertSorted(out, to)
	st.cold[to][svc] = coldQueries
	st.migCount[svc]++
	fleetMigrations.Inc()
	st.migrations = append(st.migrations, MigrationEvent{
		Epoch:         epoch,
		Service:       st.svcName[svc],
		From:          st.cfg.Nodes[from].Name,
		To:            st.cfg.Nodes[to].Name,
		Reason:        reason,
		PredictedFrom: predFrom,
		PredictedTo:   predTo,
		SLA:           st.sla[svc],
	})
}

// migrate runs the model-driven migrator after epoch e, adjusting the
// placement that epoch e+1 will serve. For each replica, the queueing
// model predicts the next epoch's p95 from the measured service time
// and the next epoch's arrival rate; replicas predicted over SLA move
// to the candidate node with the best prediction, provided the win
// clears the cold-start margin.
func (st *state) migrate(e int) error {
	clear(st.predMemo)
	for i, s := range st.cfg.Services {
		nextRate := st.rate[i] * s.rateAt(e+1)
		// One move per service per epoch, judged replica by replica in
		// node order; the first SLA-missing replica with a winning
		// candidate moves.
		for _, n := range append([]int(nil), st.placement[i]...) {
			share := st.share[i][n]
			if share == 0 {
				share = 1 / float64(len(st.placement[i]))
			}
			replicaRate := nextRate * share
			muCur, err := st.muEstimate(i, n, n, e, st.hostedCount(n))
			if err != nil {
				return err
			}
			predCur := st.predictP95(i, n, e, muCur, replicaRate, false)
			if predCur <= st.sla[i] {
				continue
			}
			best, bestPred := -1, math.Inf(1)
			for c := range st.cfg.Nodes {
				if !st.canHost(i, c, e+1) {
					continue
				}
				mu, err := st.muEstimate(i, n, c, e, st.hostedCount(c))
				if err != nil {
					return err
				}
				pred := st.predictP95(i, c, e, mu, replicaRate, true)
				if pred < bestPred {
					best, bestPred = c, pred
				}
			}
			if best >= 0 && bestPred < predCur*migrateImprovement {
				st.move(i, n, best, e+1, "sla", predCur, bestPred)
				break
			}
		}
	}
	return nil
}

// drain force-migrates every service off the draining node, effective
// for the epoch that is about to run. Destinations are chosen by the
// same queueing model (best predicted p95 among feasible nodes).
func (st *state) drain(e int) error {
	clear(st.predMemo)
	node := -1
	for n, spec := range st.cfg.Nodes {
		if spec.Name == st.cfg.DrainNode {
			node = n
		}
	}
	st.draining[node] = true
	for i, s := range st.cfg.Services {
		if !containsInt(st.placement[i], node) {
			continue
		}
		share := st.share[i][node]
		if share == 0 {
			share = 1 / float64(len(st.placement[i]))
		}
		replicaRate := st.rate[i] * s.rateAt(e) * share
		muFrom, err := st.muEstimate(i, node, node, e, st.hostedCount(node))
		if err != nil {
			return err
		}
		predFrom := st.predictP95(i, node, e, muFrom, replicaRate, false)
		best, bestPred := -1, math.Inf(1)
		for c := range st.cfg.Nodes {
			if !st.canHost(i, c, e) {
				continue
			}
			mu, err := st.muEstimate(i, node, c, e, st.hostedCount(c))
			if err != nil {
				return err
			}
			pred := st.predictP95(i, c, e, mu, replicaRate, true)
			if pred < bestPred {
				best, bestPred = c, pred
			}
		}
		if best < 0 {
			return fmt.Errorf("fleet: draining %s: no feasible node for %s",
				st.cfg.DrainNode, st.svcName[i])
		}
		st.move(i, node, best, e, "drain", predFrom, bestPred)
	}
	return nil
}

func insertSorted(xs []int, v int) []int {
	xs = append(xs, v)
	for i := len(xs) - 1; i > 0 && xs[i] < xs[i-1]; i-- {
		xs[i], xs[i-1] = xs[i-1], xs[i]
	}
	return xs
}

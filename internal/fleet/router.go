package fleet

import (
	"fmt"
	"strings"

	"stac/internal/stats"
)

// Policy selects how the router picks a hosting node for each query.
type Policy int

const (
	// RoundRobin cycles through a service's replicas in node order.
	RoundRobin Policy = iota
	// LeastLoaded picks the eligible node with the smallest fluid work
	// backlog (ties break to the lowest node index).
	LeastLoaded
	// PowerOfTwo samples two distinct eligible nodes uniformly and
	// keeps the one with the smaller backlog — the classic
	// power-of-two-choices load balancer.
	PowerOfTwo
	// Locality routes to the eligible node whose cache is warmest for
	// the service (largest LLC occupancy at the end of the previous
	// epoch); it never picks a node that does not host the service, and
	// falls back to least-loaded while no warmth signal exists yet.
	Locality
)

// Policies lists the selectable router policies.
func Policies() []Policy { return []Policy{RoundRobin, LeastLoaded, PowerOfTwo, Locality} }

// String names the policy (flag syntax).
func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case LeastLoaded:
		return "least-loaded"
	case PowerOfTwo:
		return "p2c"
	case Locality:
		return "locality"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// PolicyByName parses a policy name.
func PolicyByName(name string) (Policy, error) {
	for _, p := range Policies() {
		if p.String() == name {
			return p, nil
		}
	}
	names := make([]string, 0, 4)
	for _, p := range Policies() {
		names = append(names, p.String())
	}
	return 0, fmt.Errorf("fleet: unknown policy %q (want %s)", name, strings.Join(names, "|"))
}

// router is the fleet's sequential request router. It tracks a fluid
// per-node backlog — outstanding work in seconds, drained at each
// node's aggregate core capacity between decisions — the deterministic
// router-side load view a real L7 balancer keeps from its own
// accounting rather than from node telemetry.
type router struct {
	policy   Policy
	rng      *stats.RNG // P2C's choice stream (split from the run seed)
	backlog  []float64  // per-node outstanding work, seconds
	lastT    []float64  // per-node time of last backlog drain
	capacity []float64  // per-node drain rate (cores)
	// maxBacklog records each node's peak fluid backlog over the run —
	// the max-load metric the P2C-vs-round-robin property test compares.
	maxBacklog []float64
	rr         []int   // per-service round-robin cursor
	picks      [][]int // [service][node] routing decision counts
}

func newRouter(cfg Config, rng *stats.RNG) *router {
	r := &router{
		policy:     cfg.Policy,
		rng:        rng,
		backlog:    make([]float64, len(cfg.Nodes)),
		lastT:      make([]float64, len(cfg.Nodes)),
		capacity:   make([]float64, len(cfg.Nodes)),
		maxBacklog: make([]float64, len(cfg.Nodes)),
		rr:         make([]int, len(cfg.Services)),
		picks:      make([][]int, len(cfg.Services)),
	}
	for i, n := range cfg.Nodes {
		r.capacity[i] = float64(n.Processor.Cores)
	}
	for i := range cfg.Services {
		r.picks[i] = make([]int, len(cfg.Nodes))
	}
	return r
}

// copyFrom overwrites the state r's routing decisions read with src's,
// so speculative routing can run ahead without touching the live
// router. picks and maxBacklog only record decisions and are left as
// they are. Both routers must come from the same configuration.
func (r *router) copyFrom(src *router) {
	*r.rng = *src.rng
	copy(r.backlog, src.backlog)
	copy(r.lastT, src.lastT)
	copy(r.rr, src.rr)
}

// drain advances a node's fluid backlog to time t.
func (r *router) drain(node int, t float64) {
	if dt := t - r.lastT[node]; dt > 0 {
		r.backlog[node] -= dt * r.capacity[node]
		if r.backlog[node] < 0 {
			r.backlog[node] = 0
		}
	}
	r.lastT[node] = t
}

// route picks the node for one query of service svc arriving at time t.
// eligible lists hosting node indices in ascending order (never empty);
// warmth[n] is the service's LLC occupancy on node n at the end of the
// previous epoch; work is the query's expected service demand in
// seconds, charged to the chosen node's backlog.
func (r *router) route(svc int, t float64, eligible []int, warmth []float64, work float64) int {
	for _, n := range eligible {
		r.drain(n, t)
	}
	var pick int
	switch r.policy {
	case RoundRobin:
		pick = eligible[r.rr[svc]%len(eligible)]
		r.rr[svc]++
	case LeastLoaded:
		pick = r.leastLoaded(eligible)
	case PowerOfTwo:
		if len(eligible) == 1 {
			pick = eligible[0]
			break
		}
		a := r.rng.Intn(len(eligible))
		b := r.rng.Intn(len(eligible) - 1)
		if b >= a {
			b++
		}
		na, nb := eligible[a], eligible[b]
		pick = na
		if r.backlog[nb] < r.backlog[na] || (r.backlog[nb] == r.backlog[na] && nb < na) {
			pick = nb
		}
	case Locality:
		best, bestWarmth := -1, 0.0
		for _, n := range eligible {
			if warmth[n] > bestWarmth {
				best, bestWarmth = n, warmth[n]
			}
		}
		if best < 0 {
			pick = r.leastLoaded(eligible)
		} else {
			pick = best
		}
	default:
		pick = eligible[0]
	}
	r.backlog[pick] += work
	if r.backlog[pick] > r.maxBacklog[pick] {
		r.maxBacklog[pick] = r.backlog[pick]
	}
	r.picks[svc][pick]++
	return pick
}

func (r *router) leastLoaded(eligible []int) int {
	best := eligible[0]
	for _, n := range eligible[1:] {
		if r.backlog[n] < r.backlog[best] {
			best = n
		}
	}
	return best
}

// Package fleet simulates a cluster of testbed machines serving routed
// traffic: N heterogeneous nodes (per-node core counts, LLC geometry,
// CAT plan), a request router with pluggable policies, and a
// model-driven migrator that moves services between nodes when the
// queueing model predicts a p95 SLA miss.
//
// The simulation is epoch-based, in the spirit of representative-
// interval cache simulation: time is divided into fixed-length epochs;
// each epoch the fleet (1) generates every service's arrivals from its
// per-epoch rate profile, (2) routes each query to a hosting node in
// global arrival order — a sequential, deterministic pass, so routing
// policies that read router state (least-loaded, power-of-two-choices)
// stay reproducible — and (3) executes each node's routed schedule on a
// full testbed.Machine via ServiceSpec.Schedule injection. Per-node
// runs are independent within an epoch, so they shard over internal/par
// with pre-assigned seeds and results are bit-identical at any worker
// count (TestFleetWorkerInvariant). Between epochs the migrator
// consults a queueing model fed by measured per-node service times and
// relocates services predicted to miss their SLA, paying an explicit
// cold-cache demand penalty on the destination.
//
// Each epoch's machines start cold (the interval approximation — cache
// state does not persist across epochs); locality-aware routing instead
// reads warmth from the previous epoch's terminal LLC occupancy
// (testbed.ServiceResult.OccupancyLines), and migration adds the cold
// penalty on top.
package fleet

import (
	"fmt"
	"math"

	"stac/internal/cat"
	"stac/internal/testbed"
	"stac/internal/workload"
)

// NodeSpec describes one machine of the fleet.
type NodeSpec struct {
	// Name identifies the node in results, placements and scenarios.
	Name string
	// Processor is the node's simulated hardware (core count, LLC
	// geometry, memory bandwidth cap).
	Processor testbed.Processor
	// CoresPerService is the node's per-service core provision
	// (default testbed.DefaultCoresPerService, the paper's setting).
	CoresPerService int
	// PrivateWays/SharedWays define the node's chain CAT plan
	// (defaults 2/2). A rolling plan rollout overrides these per epoch.
	PrivateWays int
	SharedWays  int
}

// maxServices returns how many services the node can host under the
// given CAT plan: bounded by cores and by chain-layout fit.
func (n NodeSpec) maxServices(priv, shared int) int {
	byCores := n.Processor.Cores / n.CoresPerService
	byWays := 0
	for k := 1; k <= byCores; k++ {
		if k*priv+(k-1)*shared <= n.Processor.Ways {
			byWays = k
		}
	}
	return byWays
}

// ServiceSpec describes one fleet-wide service.
type ServiceSpec struct {
	// Kernel is the workload (Table 1 or a trace-derived kernel).
	Kernel workload.Kernel
	// Load is the target per-replica utilisation ρ at rate multiplier 1:
	// the fleet-wide arrival rate is Load × (aggregate cores the initial
	// placement provisions) / expected solo service time (calibrated on
	// the reference node). Migration onto a better-provisioned node
	// lowers the realised utilisation — the capacity heterogeneity the
	// migrator exploits.
	Load float64
	// Replicas is how many nodes host the service (default 1). The
	// router spreads queries over the hosting replicas.
	Replicas int
	// Nodes optionally pins the initial placement to named nodes
	// (len == Replicas). Empty: the planner spreads replicas onto the
	// least-occupied nodes.
	Nodes []string
	// RateProfile multiplies the arrival rate per epoch (diurnal
	// cycles, flash crowds). Epochs beyond the profile reuse its last
	// entry; nil is a flat 1.0.
	RateProfile []float64
}

// Fleet-wide service settings; every service also runs at
// testbed.NeverBoost on every node.
//   - slaFactor sets a service's p95 SLA as a multiple of its solo
//     expected service time; the migrator acts when the model predicts
//     the next epoch's p95 above it.
//   - coldPenalty inflates a migrated service's per-query demand on its
//     new node, decaying linearly over its first coldQueries queries
//     there: the cold-cache warmup cost of moving. It is typed, so
//     coldPenalty-1 rounds as it does at run time.
const (
	slaFactor           = 12
	coldPenalty float64 = 1.4
	coldQueries         = 24
)

// rateAt returns the service's rate multiplier for an epoch.
func (s ServiceSpec) rateAt(epoch int) float64 {
	if len(s.RateProfile) == 0 {
		return 1
	}
	if epoch >= len(s.RateProfile) {
		return s.RateProfile[len(s.RateProfile)-1]
	}
	return s.RateProfile[epoch]
}

// Rollout describes a rolling CAT-plan change: starting at StartEpoch,
// one node per epoch (in node order) switches to the new plan.
type Rollout struct {
	StartEpoch  int
	PrivateWays int
	SharedWays  int
}

// Config parameterises one fleet run.
type Config struct {
	Nodes    []NodeSpec
	Services []ServiceSpec
	// Policy selects the request router (default RoundRobin).
	Policy Policy
	// Epochs is the number of simulation epochs (default 6).
	Epochs int
	// EpochQueries sizes the epoch: the epoch length is chosen so the
	// slowest-arriving service receives about this many queries at rate
	// multiplier 1 (default 60; negative is rejected).
	EpochQueries int
	// Migrate enables the model-driven migrator.
	Migrate bool
	// DrainNode, when set, drains the named node starting at DrainEpoch
	// (which must lie in [0, Epochs)): the router stops sending to it and
	// every hosted service is force-migrated away (reason "drain").
	DrainNode  string
	DrainEpoch int
	// Rollout, when non-nil, rolls the new CAT plan across nodes one
	// epoch at a time.
	Rollout *Rollout
	// Workers bounds how many node runs execute at once, across both
	// epochs in flight (<= 0: GOMAXPROCS). Results are identical at any
	// worker count.
	Workers int
	// Seed drives every random stream in the run.
	Seed uint64
}

// Defaults fills zero-valued fields and returns the result.
func (c Config) Defaults() Config {
	if c.Epochs == 0 {
		c.Epochs = 6
	}
	if c.EpochQueries == 0 {
		c.EpochQueries = 60
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	for i := range c.Nodes {
		if c.Nodes[i].CoresPerService == 0 {
			c.Nodes[i].CoresPerService = testbed.DefaultCoresPerService
		}
		if c.Nodes[i].PrivateWays == 0 {
			c.Nodes[i].PrivateWays = 2
		}
		if c.Nodes[i].SharedWays == 0 {
			c.Nodes[i].SharedWays = 2
		}
		if c.Nodes[i].Name == "" {
			c.Nodes[i].Name = fmt.Sprintf("node%d", i)
		}
	}
	for i := range c.Services {
		if c.Services[i].Load == 0 {
			c.Services[i].Load = 0.7
		}
		if c.Services[i].Replicas == 0 {
			c.Services[i].Replicas = 1
		}
	}
	return c
}

// maxTagged bounds the node and service counts: each merged response
// carries its node and service as one-byte tags.
const maxTagged = 256

// ConfigError reports a Config that Validate rejects. Field names the
// offending Config field, so callers can tell a bad configuration from
// a failure during the run with errors.As.
type ConfigError struct {
	Field string
	Msg   string
	Err   error // underlying cause, if any
}

func (e *ConfigError) Error() string {
	if e.Err != nil {
		return "fleet: " + e.Msg + ": " + e.Err.Error()
	}
	return "fleet: " + e.Msg
}

func (e *ConfigError) Unwrap() error { return e.Err }

func configErr(field, format string, args ...any) error {
	return &ConfigError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// Validate reports configuration errors as *ConfigError.
func (c Config) Validate() error {
	if len(c.Nodes) == 0 {
		return configErr("Nodes", "no nodes")
	}
	if len(c.Services) == 0 {
		return configErr("Services", "no services")
	}
	if len(c.Nodes) > maxTagged {
		return configErr("Nodes", "%d nodes exceed the limit of %d", len(c.Nodes), maxTagged)
	}
	if len(c.Services) > maxTagged {
		return configErr("Services", "%d services exceed the limit of %d", len(c.Services), maxTagged)
	}
	names := map[string]bool{}
	for _, n := range c.Nodes {
		if names[n.Name] {
			return configErr("Nodes", "duplicate node name %q", n.Name)
		}
		names[n.Name] = true
		if err := n.Processor.Validate(); err != nil {
			return &ConfigError{Field: "Nodes", Msg: fmt.Sprintf("node %q", n.Name), Err: err}
		}
		if n.maxServices(n.PrivateWays, n.SharedWays) < 1 {
			return configErr("Nodes", "node %q cannot host any service under plan [%d|%d]",
				n.Name, n.PrivateWays, n.SharedWays)
		}
		if c.Rollout != nil && n.maxServices(c.Rollout.PrivateWays, c.Rollout.SharedWays) < 1 {
			return configErr("Rollout", "node %q cannot host any service under rollout plan [%d|%d]",
				n.Name, c.Rollout.PrivateWays, c.Rollout.SharedWays)
		}
	}
	total := 0
	for i, s := range c.Services {
		// Written to refuse NaN: a NaN rate never ends an epoch's
		// arrival loop, and neither does an infinite one.
		if !(s.Load > 0 && s.Load < 1) {
			return configErr("Services", "service %d load %v outside (0,1)", i, s.Load)
		}
		for e, m := range s.RateProfile {
			if !(m >= 0 && m <= math.MaxFloat64) {
				return configErr("Services", "service %d rate multiplier %v at epoch %d is not finite and non-negative", i, m, e)
			}
		}
		if s.Replicas < 1 || s.Replicas > len(c.Nodes) {
			return configErr("Services", "service %d replicas %d outside [1,%d]", i, s.Replicas, len(c.Nodes))
		}
		if s.Nodes != nil && len(s.Nodes) != s.Replicas {
			return configErr("Services", "service %d pins %d nodes for %d replicas", i, len(s.Nodes), s.Replicas)
		}
		for _, nm := range s.Nodes {
			if !names[nm] {
				return configErr("Services", "service %d pinned to unknown node %q", i, nm)
			}
		}
		total += s.Replicas
	}
	cap := 0
	for _, n := range c.Nodes {
		cap += n.maxServices(n.PrivateWays, n.SharedWays)
	}
	if total > cap {
		return configErr("Services", "%d replicas exceed fleet capacity %d", total, cap)
	}
	if c.Epochs <= 0 {
		return configErr("Epochs", "non-positive epochs")
	}
	if c.EpochQueries < 0 {
		return configErr("EpochQueries", "negative epoch queries %d", c.EpochQueries)
	}
	if c.DrainNode != "" {
		if !names[c.DrainNode] {
			return configErr("DrainNode", "drain node %q unknown", c.DrainNode)
		}
		if c.DrainEpoch < 0 || c.DrainEpoch >= c.Epochs {
			return configErr("DrainEpoch", "drain epoch %d outside the run's epochs [0,%d)",
				c.DrainEpoch, c.Epochs)
		}
	}
	return nil
}

// nodePlan returns the node's CAT plan at an epoch, applying any
// rollout: starting at Rollout.StartEpoch, node i switches in epoch
// StartEpoch+i.
func (c Config) nodePlan(epoch, node int) (priv, shared int) {
	n := c.Nodes[node]
	if r := c.Rollout; r != nil && epoch >= r.StartEpoch+node {
		return r.PrivateWays, r.SharedWays
	}
	return n.PrivateWays, n.SharedWays
}

// layoutFits reports whether k services fit the node's chain plan.
func layoutFits(n NodeSpec, priv, shared, k int) bool {
	if k*n.CoresPerService > n.Processor.Cores {
		return false
	}
	_, err := cat.PlanChain(n.Processor.Ways, k, priv, shared)
	return err == nil
}

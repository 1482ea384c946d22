package testbed

import (
	"fmt"
	"math"

	"stac/internal/workload"
)

// NeverBoost is a timeout value large enough that short-term allocation
// never triggers (the paper's 600 % setting effectively disables boosting;
// we use +Inf for the pure "never" endpoint and 6.0 for the paper's
// maximum swept value).
var NeverBoost = math.Inf(1)

// BoostKind selects the mechanism a short-term boost uses. The paper's
// mechanism is cache allocation; frequency sprinting (DVFS/turbo, the
// computational-sprinting literature the paper builds on) is provided as
// an extension so the two can be compared on equal timeout policies.
type BoostKind int

const (
	// BoostCache grants the shared LLC ways (the paper's mechanism).
	BoostCache BoostKind = iota
	// BoostFrequency raises the core clock by sprintFactor while
	// boosted: compute and cache-hit cycles shrink; memory latency in
	// wall time does not.
	BoostFrequency
	// BoostBoth applies both mechanisms simultaneously.
	BoostBoth
)

// sprintFactor is the core-clock multiplier applied while a
// frequency-boosted service runs, a typical turbo headroom.
const sprintFactor = 1.25

// String names the boost mechanism.
func (b BoostKind) String() string {
	switch b {
	case BoostCache:
		return "cache"
	case BoostFrequency:
		return "frequency"
	case BoostBoth:
		return "cache+frequency"
	default:
		return "unknown"
	}
}

// ServiceSpec configures one collocated online service within a condition.
type ServiceSpec struct {
	// Kernel is the workload (one of Table 1).
	Kernel workload.Kernel
	// Load is the target utilisation ρ ∈ (0, 1): the paper sweeps query
	// inter-arrival rates at 25–95 % of service rate (Table 2).
	Load float64
	// Timeout is the short-term allocation timeout relative to the
	// service's expected service time (Equation 4): 0 = always boosted,
	// NeverBoost = plain static allocation. Table 2 sweeps 0–600 %.
	Timeout float64
	// Boost selects the boost mechanism (default BoostCache).
	Boost BoostKind
	// Schedule, when non-nil, replaces the generated arrival process with
	// an explicit pre-routed query sequence (arrivals in machine-local
	// simulated seconds, non-decreasing). This is the fleet router's
	// injection point: every scheduled query is measured (warmup 0) and
	// Load is ignored. An empty non-nil schedule is valid — the service
	// is placed on the machine (cores, CAT span) but receives no traffic.
	Schedule []workload.Query
}

// Condition is one runtime condition (a cell of Table 2's space): the
// processor, the collocated services with their loads and timeouts, the
// cache layout spans and the counter sampling period.
type Condition struct {
	Processor Processor
	Services  []ServiceSpec
	// PrivateWays is the per-service private span (baseline allocation;
	// the paper reserves 2 MB ≡ 1 way, or 2 ways on some platforms).
	PrivateWays int
	// SharedWays is the size of each shared span between neighbouring
	// services, used by short-term allocation.
	SharedWays int
	// PrivateWaysBySvc, when non-nil, gives each service its own private
	// span width (cat.PlanChainAsym) instead of the uniform PrivateWays.
	// Must match len(Services). Used by the surrogate policy search to
	// validate asymmetric mask plans; nil preserves the paper's symmetric
	// chain exactly.
	PrivateWaysBySvc []int
	// CoresPerService is the number of cores dedicated to each service
	// (the paper provisions 2).
	CoresPerService int
	// SamplePeriod is the simulated time between counter samples.
	SamplePeriod float64
	// QueriesPerService is how many completed queries to measure per
	// service (after warmup).
	QueriesPerService int
	// WarmupQueries are discarded from the head of each service's
	// completions (cache and queue warm-up).
	WarmupQueries int
	// PoolSharing switches the cache layout from the paper's pairwise
	// chain to a non-contiguous shared pool (cat.PlanPool): every service
	// keeps its private span and all boosts draw from one common region.
	// Real Intel CAT cannot express these masks; the simulated LLC can —
	// this is the §2 "non-contiguous allocation" extension.
	PoolSharing bool
	// Seed makes the run reproducible.
	Seed uint64
	// CalibrationSeed, when non-zero, seeds service-time calibration
	// instead of Seed. Fleet epochs vary Seed per (epoch, node) for fresh
	// run randomness but keep CalibrationSeed fixed so the process-wide
	// calibration memo keeps hitting. Zero preserves the historical
	// behaviour (calibrate from Seed) exactly.
	CalibrationSeed uint64
}

// Defaults fills zero-valued fields with the standard experimental
// settings and returns the result.
func (c Condition) Defaults() Condition {
	if c.Processor.Name == "" {
		c.Processor = XeonE5_2683()
	}
	if c.CoresPerService == 0 {
		c.CoresPerService = 2
	}
	if c.PrivateWays == 0 {
		c.PrivateWays = 2
	}
	if c.SharedWays == 0 && c.PrivateWaysBySvc == nil {
		// Asymmetric layouts specify their spans fully — a zero shared
		// span there means "no shared ways", not "use the default".
		c.SharedWays = 2
	}
	if c.SamplePeriod == 0 {
		c.SamplePeriod = 50e-6
	}
	if c.QueriesPerService == 0 {
		c.QueriesPerService = 200
	}
	if c.WarmupQueries == 0 {
		c.WarmupQueries = 20
	}
	for i := range c.Services {
		if c.Services[i].Load == 0 {
			c.Services[i].Load = 0.9
		}
	}
	return c
}

// Validate reports configuration errors.
func (c Condition) Validate() error {
	if err := c.Processor.Validate(); err != nil {
		return err
	}
	if len(c.Services) == 0 {
		return fmt.Errorf("testbed: condition has no services")
	}
	if len(c.Services)*c.CoresPerService > c.Processor.Cores {
		return fmt.Errorf("testbed: %d services × %d cores exceed %d processor cores",
			len(c.Services), c.CoresPerService, c.Processor.Cores)
	}
	need := len(c.Services)*c.PrivateWays + (len(c.Services)-1)*c.SharedWays
	if c.PrivateWaysBySvc != nil {
		if len(c.PrivateWaysBySvc) != len(c.Services) {
			return fmt.Errorf("testbed: %d per-service private widths for %d services",
				len(c.PrivateWaysBySvc), len(c.Services))
		}
		need = (len(c.Services) - 1) * c.SharedWays
		for i, p := range c.PrivateWaysBySvc {
			if p <= 0 {
				return fmt.Errorf("testbed: service %d private ways %d must be positive", i, p)
			}
			need += p
		}
	}
	if need > c.Processor.Ways {
		return fmt.Errorf("testbed: layout needs %d ways, processor has %d", need, c.Processor.Ways)
	}
	for i, s := range c.Services {
		if s.Schedule == nil && (s.Load <= 0 || s.Load >= 1) {
			return fmt.Errorf("testbed: service %d load %v outside (0,1)", i, s.Load)
		}
		for qi := 1; qi < len(s.Schedule); qi++ {
			if s.Schedule[qi].Arrival < s.Schedule[qi-1].Arrival {
				return fmt.Errorf("testbed: service %d schedule arrivals decrease at %d", i, qi)
			}
		}
		if s.Timeout < 0 {
			return fmt.Errorf("testbed: service %d negative timeout", i)
		}
	}
	if c.SamplePeriod <= 0 {
		return fmt.Errorf("testbed: non-positive sample period")
	}
	if c.QueriesPerService <= 0 {
		return fmt.Errorf("testbed: non-positive queries per service")
	}
	return nil
}

// Pair builds the canonical two-service condition used throughout the
// evaluation: kernels a and b collocated on the default platform at the
// given loads and timeouts.
func Pair(a, b workload.Kernel, loadA, loadB, timeoutA, timeoutB float64, seed uint64) Condition {
	return Condition{
		Services: []ServiceSpec{
			{Kernel: a, Load: loadA, Timeout: timeoutA},
			{Kernel: b, Load: loadB, Timeout: timeoutB},
		},
		Seed: seed,
	}.Defaults()
}

package testbed

import (
	"fmt"
	"strings"

	"stac/internal/counters"
	"stac/internal/stats"
)

// QueryResult records the measured life cycle of one query execution.
type QueryResult struct {
	// Arrival, Start and Completion are simulated timestamps.
	Arrival    float64
	Start      float64
	Completion float64
	// Boosted reports whether the execution ran with short-term
	// allocation at any point.
	Boosted bool
	// Counters aggregates the 29 sampled counters attributed to this
	// execution (the proxy differentiates service-level samples by query).
	Counters counters.Sample
}

// Response returns completion − arrival (time in system).
func (q QueryResult) Response() float64 { return q.Completion - q.Arrival }

// ServiceTime returns completion − start (processing time).
func (q QueryResult) ServiceTime() float64 { return q.Completion - q.Start }

// QueueDelay returns start − arrival (waiting time).
func (q QueryResult) QueueDelay() float64 { return q.Start - q.Arrival }

// ServiceResult aggregates measurements for one collocated service.
type ServiceResult struct {
	// Name is the kernel name.
	Name string
	// Spec echoes the configuration that produced the result.
	Spec ServiceSpec
	// ExpServiceTime is the calibrated baseline service time used to
	// normalise the timeout (Equation 4) and arrival rate.
	ExpServiceTime float64
	// Queries holds per-query measurements (post-warmup).
	Queries []QueryResult
	// BoostRatio is l_a′/l_a for the service's policy.
	BoostRatio float64
	// OccupancyLines is the service's LLC occupancy in cache lines when
	// the run ended: the cache-warmth signal the fleet's locality-aware
	// router reads.
	OccupancyLines int
}

// ResponseTimes extracts the response time of every measured query.
func (s ServiceResult) ResponseTimes() []float64 {
	out := make([]float64, len(s.Queries))
	for i, q := range s.Queries {
		out[i] = q.Response()
	}
	return out
}

// ServiceTimes extracts the processing time of every measured query.
func (s ServiceResult) ServiceTimes() []float64 {
	out := make([]float64, len(s.Queries))
	for i, q := range s.Queries {
		out[i] = q.ServiceTime()
	}
	return out
}

// MeanResponse returns the average response time.
func (s ServiceResult) MeanResponse() float64 { return stats.Mean(s.ResponseTimes()) }

// P95Response returns the 95th-percentile response time.
func (s ServiceResult) P95Response() float64 { return stats.Percentile(s.ResponseTimes(), 95) }

// MeanServiceTime returns the average processing time.
func (s ServiceResult) MeanServiceTime() float64 { return stats.Mean(s.ServiceTimes()) }

// EffectiveAllocation computes Equation 3: the speedup of the measured
// service time over the calibrated baseline service time, normalised by
// the gross increase in allocation (BoostRatio). Values near 1 indicate
// the extra ways translate into proportional speedup; heavy contention
// drags the value down.
func (s ServiceResult) EffectiveAllocation() float64 {
	st := s.MeanServiceTime()
	if st <= 0 || s.BoostRatio <= 0 {
		return 0
	}
	speedup := s.ExpServiceTime / st
	return speedup / s.BoostRatio
}

// RunResult is the outcome of executing one condition on the testbed.
type RunResult struct {
	Condition Condition
	Services  []ServiceResult
	// SimTime is the total simulated duration.
	SimTime float64
	// Truncated reports that the simulated-time guard tripped before
	// every service finished its query budget: the per-service Queries
	// slices may be short and tail statistics unreliable. Callers that
	// require complete measurements should check RequireComplete.
	Truncated bool
}

// RequireComplete returns an error when the run was truncated by the
// simulated-time guard, identifying the condition so batch callers can
// tell which point of a sweep starved.
func (r *RunResult) RequireComplete() error {
	if !r.Truncated {
		return nil
	}
	names := make([]string, 0, len(r.Services))
	for _, s := range r.Services {
		names = append(names, fmt.Sprintf("%s(%d/%d)", s.Name, len(s.Queries), r.Condition.QueriesPerService))
	}
	return fmt.Errorf("testbed: run truncated at sim time %.3gs before query budget completed: %s",
		r.SimTime, strings.Join(names, ", "))
}

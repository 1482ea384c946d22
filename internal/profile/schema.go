// Package profile implements Stage 1 of the paper's pipeline: collecting
// cache-usage profiles from the testbed, assembling the flattened feature
// vectors of Equation 2,
//
//	P = <static, dynamic, query_0, ..., query_N, eff. allocation>
//
// computing effective cache allocation targets (Equation 3), splitting
// datasets, and sampling runtime conditions — including the stratified
// sampling of §4 that cut profiling time by 67 %.
package profile

import (
	"fmt"
	"math"

	"stac/internal/counters"
	"stac/internal/stats"
	"stac/internal/testbed"
)

// TimeoutCap replaces an infinite ("never boost") timeout in feature
// vectors; learners cannot digest +Inf and the paper's sweep tops out at
// 600 % (6.0) anyway.
const TimeoutCap = 8.0

// Positions of the static features at the head of every row's feature
// vector.
const (
	FeatLoad = iota
	FeatTimeout
	FeatPartnerLoad
	FeatPartnerTimeout
	FeatPrivateWays
	FeatSharedWays
	FeatBoostRatio
	FeatSamplePeriod
	NumStatic
)

// Positions of the dynamic features within their block, which follows
// the static block: feature NumStatic+DynBoostedFrac is a row's boosted
// fraction.
const (
	DynQueueDelayMean = iota
	DynQueueDelayMax
	DynBoostedFrac
	NumDynamic
)

// The layout of every row's feature vector: the static block, the
// dynamic block, then a counters × QueriesPerRow matrix flattened
// row-major (each counter is a row so spatially correlated counters are
// adjacent — Figure 7c). That is 8 + 3 + 20×29 = 591 features: the
// paper's "580 original features" plus condition features.
const (
	// QueriesPerRow is N, the number of consecutive query executions
	// whose counter vectors form one row (the paper's example uses 20).
	QueriesPerRow = 20
	// MatrixOffset is the index where the counter matrix begins.
	MatrixOffset = NumStatic + NumDynamic
	// NumFeatures is the length of every row's feature vector.
	NumFeatures = MatrixOffset + QueriesPerRow*counters.NumCounters
)

// FeatureNames names the static and dynamic features, in row order.
var FeatureNames = [MatrixOffset]string{
	"load", "timeout", "partner_load", "partner_timeout",
	"private_ways", "shared_ways", "boost_ratio", "sample_period",
	"queue_delay_rel_mean", "queue_delay_rel_max", "boosted_frac",
}

// Static is the runtime condition a row describes: the static features
// of Equation 2. Vector encodes it and StaticOf decodes it, so rows built
// from measurements and inputs reconstructed for unseen scenarios share
// one layout.
type Static struct {
	Load, Timeout               float64
	PartnerLoad, PartnerTimeout float64
	PrivateWays, SharedWays     int
	BoostRatio, SamplePeriodRel float64
}

// Vector returns the static features in row order, with infinite or
// over-cap timeouts replaced by TimeoutCap.
func (s Static) Vector() [NumStatic]float64 {
	return [NumStatic]float64{
		FeatLoad:           s.Load,
		FeatTimeout:        capTimeout(s.Timeout),
		FeatPartnerLoad:    s.PartnerLoad,
		FeatPartnerTimeout: capTimeout(s.PartnerTimeout),
		FeatPrivateWays:    float64(s.PrivateWays),
		FeatSharedWays:     float64(s.SharedWays),
		FeatBoostRatio:     s.BoostRatio,
		FeatSamplePeriod:   s.SamplePeriodRel,
	}
}

// StaticOf decodes the static features at the head of a feature vector.
func StaticOf(features []float64) Static {
	f := features[:NumStatic]
	return Static{
		Load:            f[FeatLoad],
		Timeout:         f[FeatTimeout],
		PartnerLoad:     f[FeatPartnerLoad],
		PartnerTimeout:  f[FeatPartnerTimeout],
		PrivateWays:     int(f[FeatPrivateWays]),
		SharedWays:      int(f[FeatSharedWays]),
		BoostRatio:      f[FeatBoostRatio],
		SamplePeriodRel: f[FeatSamplePeriod],
	}
}

// Schema is the one part of the row layout that varies: the order of
// the counter matrix's rows.
type Schema struct {
	// CounterOrder permutes the 29 counters; SpatialOrder preserves
	// locality, ShuffledOrder destroys it (the Figure 7c ablation).
	CounterOrder []int
}

// DefaultSchema returns the spatial counter order used throughout the
// evaluation.
func DefaultSchema() Schema {
	return Schema{CounterOrder: counters.SpatialOrder()}
}

// Validate reports whether the counter order is a permutation of the
// counters.
func (s Schema) Validate() error {
	if len(s.CounterOrder) != counters.NumCounters {
		return fmt.Errorf("profile: counter order has %d entries, want %d",
			len(s.CounterOrder), counters.NumCounters)
	}
	seen := make([]bool, counters.NumCounters)
	for _, i := range s.CounterOrder {
		if i < 0 || i >= counters.NumCounters || seen[i] {
			return fmt.Errorf("profile: counter order is not a permutation")
		}
		seen[i] = true
	}
	return nil
}

// Row is one profiling example: features plus the effective-allocation
// target and bookkeeping about the window it came from.
type Row struct {
	Features []float64
	// EA is the effective cache allocation target (Equation 3).
	EA float64
	// RespMean and RespP95 record the window's measured response times —
	// the quantities Stage 3 must ultimately predict.
	RespMean float64
	RespP95  float64
	// ExpService is the service's calibrated baseline service time
	// (known to the modeler from profiling).
	ExpService float64
	// STMean and STCV summarise measured service times in the window,
	// used to parameterise the Stage 3 service distribution.
	STMean float64
	STCV   float64
	// Service names the workload the row belongs to.
	Service string
	// CondID identifies the profiling run (condition) the row came from.
	// Train/test splits must separate conditions, not rows: rows from one
	// run share the condition and would leak across a row-level split.
	CondID int
}

// BuildRows converts one service's measurements from a testbed run into
// profile rows: consecutive groups of QueriesPerRow queries each produce
// one row, multiplying the training examples a single run yields (§3.1).
func BuildRows(schema Schema, run *testbed.RunResult, svcIdx int) ([]Row, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if svcIdx < 0 || svcIdx >= len(run.Services) {
		return nil, fmt.Errorf("profile: service index %d out of range", svcIdx)
	}
	svc := run.Services[svcIdx]
	spec := svc.Spec

	cond := Static{
		Load:            spec.Load,
		Timeout:         spec.Timeout,
		PrivateWays:     run.Condition.PrivateWays,
		SharedWays:      run.Condition.SharedWays,
		BoostRatio:      svc.BoostRatio,
		SamplePeriodRel: run.Condition.SamplePeriod / svc.ExpServiceTime,
	}
	for i, other := range run.Services {
		if i != svcIdx {
			cond.PartnerLoad = other.Spec.Load
			cond.PartnerTimeout = other.Spec.Timeout
			break
		}
	}
	static := cond.Vector()

	const n = QueriesPerRow
	var rows []Row
	for start := 0; start+n <= len(svc.Queries); start += n {
		window := svc.Queries[start : start+n]

		var qdSum, qdMax, boosted, stSum float64
		resp := make([]float64, len(window))
		st := make([]float64, len(window))
		for i, q := range window {
			qd := q.QueueDelay() / svc.ExpServiceTime
			qdSum += qd
			if qd > qdMax {
				qdMax = qd
			}
			if q.Boosted {
				boosted++
			}
			st[i] = q.ServiceTime()
			stSum += st[i]
			resp[i] = q.Response()
		}
		dynamic := [NumDynamic]float64{
			DynQueueDelayMean: qdSum / n,
			DynQueueDelayMax:  qdMax,
			DynBoostedFrac:    boosted / n,
		}

		feats := make([]float64, 0, NumFeatures)
		feats = append(feats, static[:]...)
		feats = append(feats, dynamic[:]...)
		// Counter matrix, row-major: counter (in schema order) × query.
		for _, ctr := range schema.CounterOrder {
			for _, q := range window {
				feats = append(feats, q.Counters[ctr])
			}
		}

		meanST := stSum / n
		ea := 0.0
		if meanST > 0 && svc.BoostRatio > 0 {
			ea = (svc.ExpServiceTime / meanST) / svc.BoostRatio
		}
		stcv := 0.0
		if meanST > 0 {
			stcv = stats.StdDev(st) / meanST
		}
		rows = append(rows, Row{
			Features:   feats,
			EA:         ea,
			RespMean:   stats.Mean(resp),
			RespP95:    stats.Percentile(resp, 95),
			ExpService: svc.ExpServiceTime,
			STMean:     meanST,
			STCV:       stcv,
			Service:    svc.Name,
		})
	}
	return rows, nil
}

func capTimeout(t float64) float64 {
	if math.IsInf(t, 1) || t > TimeoutCap {
		return TimeoutCap
	}
	return t
}

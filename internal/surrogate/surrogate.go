// Package surrogate implements the analytical fast path for policy
// search: exact miss-ratio curves (Mattson stack distances, package mrc)
// are converted into predicted per-service cycles-per-access under
// any way allocation by a fully-associative multi-level cache model in
// the spirit of Gysi et al., "A Fast Analytical Model of Fully
// Associative Caches". The predicted service times feed the Stage-3
// queueing simulator directly, so evaluating a CAT mask plan costs a few
// queueing simulations instead of a full packed-simulator replay —
// roughly 100–1000× cheaper per plan (BENCH_mrc.json tracks the measured
// ratio). The searcher re-validates its top candidates against the real
// testbed, and differential tests bound the surrogate's error against
// full simulation.
package surrogate

import (
	"fmt"
	"math"

	"stac/internal/cat"
	"stac/internal/mrc"
	"stac/internal/par"
	"stac/internal/testbed"
	"stac/internal/workload"
)

// Model predicts a single kernel's execution speed under any LLC way
// allocation from one miss-ratio curve. The hierarchy's hit distribution
// is read off the curve at each level's capacity: an access hits in the
// first level whose capacity exceeds its stack distance (fully
// associative LRU levels). The model is anchored per way count: a solo,
// collocation-free testbed calibration at each integer allocation pins
// the absolute service time there (absorbing set-associative conflict
// effects the fully associative curve cannot see), while the curve
// supplies what no solo profile can — the sensitivity to memory
// bandwidth pressure from collocated traffic, and interpolation across
// the fractional effective allocations produced by contended shared
// ways. This mirrors the paper's own methodology: profile each service
// alone, predict the collocated behaviour analytically. Calibrations
// are memoised process-wide (~6 ms each), so anchoring a pair costs
// ~0.25 s once and is then amortised over thousands of plan
// evaluations.
type Model struct {
	proc   testbed.Processor
	kernel workload.Kernel
	curve  *mrc.Curve

	l1Lines, l2Lines, linesPerWay int

	anchors []float64 // anchors[w-1]: calibrated solo time at w ways
	cv      float64   // service-time CV from the demand distribution
}

// ModelConfig configures NewModel. Zero values select the defaults noted
// on each field.
type ModelConfig struct {
	// Seed drives the anchor calibrations and the CV estimate.
	Seed uint64
	// workers bounds the anchor fan-out (0 = GOMAXPROCS); New passes its
	// Config.Workers.
	workers int
}

// NewModel builds an anchored analytical model for the kernel on the
// processor. curve must be the kernel's solo miss-ratio curve at the
// testbed line size, as mrc.KernelCurve computes it.
func NewModel(proc testbed.Processor, k workload.Kernel, curve *mrc.Curve, cfg ModelConfig) (*Model, error) {
	if curve == nil {
		return nil, fmt.Errorf("surrogate: nil miss-ratio curve")
	}
	hc := proc.HierarchyConfig()
	m := &Model{
		proc:        proc,
		kernel:      k,
		curve:       curve,
		l1Lines:     hc.L1.Sets * hc.L1.Ways,
		l2Lines:     hc.L2.Sets * hc.L2.Ways,
		linesPerWay: hc.LLC.Sets,
	}
	// Anchor every integer way count with a solo calibration. The
	// calibrations are independent and fan out over cfg.workers; the
	// lowest failing way count is reported, as a serial loop would. They
	// are memoised process-wide on their full fingerprint, so models for
	// the same (processor, kernel) pay this once.
	m.anchors = make([]float64, proc.Ways)
	err := par.ForEach(cfg.workers, proc.Ways, func(i int) error {
		w := i + 1
		mask := cat.Setting{Offset: 0, Length: w}.Mask()
		ref, err := testbed.CalibrateServiceTime(proc, k, mask, 1<<32, cfg.Seed+1)
		if err != nil {
			return err
		}
		if ref <= 0 {
			return fmt.Errorf("surrogate: anchor calibration of %s at %d ways produced %v", k.Name, w, ref)
		}
		m.anchors[i] = ref
		return nil
	})
	if err != nil {
		return nil, err
	}

	m.cv = k.DemandCV(cfg.Seed + 2)
	return m, nil
}

// ServiceCV returns the demand-driven service-time coefficient of
// variation the queueing stage should use.
func (m *Model) ServiceCV() float64 { return m.cv }

// CyclesAtLines predicts mean cycles per memory access when the
// kernel's LLC allocation holds the given number of lines and collocated
// traffic exerts the given memory-bandwidth pressure (the testbed's
// latency inflation factor: memory latency × (1+pressure)).
func (m *Model) CyclesAtLines(llcLines int, pressure float64) float64 {
	lat := m.proc.Lat
	mr1 := m.curve.MissRatio(m.l1Lines)
	mr2 := m.curve.MissRatio(m.l2Lines)
	mrl := m.curve.MissRatio(llcLines)
	// The curve falls with capacity, so the clamps bind only when the LLC
	// allocation holds fewer lines than L2; they keep the hit fractions a
	// distribution.
	if mr2 > mr1 {
		mr2 = mr1
	}
	if mrl > mr2 {
		mrl = mr2
	}
	f1 := 1 - mr1
	f2 := mr1 - mr2
	fl := mr2 - mrl
	mem := lat.Memory * (1 + pressure)
	return m.kernel.ComputePerAccess + f1*lat.L1Hit + f2*lat.L2Hit + fl*lat.LLCHit + mrl*mem
}

// MissRatio predicts the kernel's LLC miss ratio under a whole-way
// allocation.
func (m *Model) MissRatio(ways int) float64 {
	return m.curve.MissRatio(ways * m.linesPerWay)
}

// anchorAt interpolates the per-way calibration anchors at a possibly
// fractional way count (contended shared spans yield fractional
// effective allocations), clamped to [1, Ways].
func (m *Model) anchorAt(ways float64) float64 {
	if ways <= 1 {
		return m.anchors[0]
	}
	if ways >= float64(len(m.anchors)) {
		return m.anchors[len(m.anchors)-1]
	}
	lo := int(ways)
	frac := ways - float64(lo)
	return m.anchors[lo-1]*(1-frac) + m.anchors[lo]*frac
}

// ServiceTime predicts the mean per-query service time under the
// allocation: the solo calibration anchor at that way count, inflated by
// the curve's predicted sensitivity to memory-bandwidth pressure (the
// ratio of modelled cycles-per-access with and without the pressure).
func (m *Model) ServiceTime(ways int, pressure float64) float64 {
	return m.serviceTimeAtLines(ways*m.linesPerWay, pressure)
}

// serviceTimeAtLines is ServiceTime for fractional effective allocations
// (contended shared ways), expressed in lines.
func (m *Model) serviceTimeAtLines(lines int, pressure float64) float64 {
	base := m.anchorAt(float64(lines) / float64(m.linesPerWay))
	if pressure == 0 {
		return base
	}
	solo := m.CyclesAtLines(lines, 0)
	if solo <= 0 {
		return base
	}
	return base * m.CyclesAtLines(lines, pressure) / solo
}

// memTrafficAtLines predicts the LLC miss traffic (misses per simulated
// second) the kernel's service injects into the memory controller at an
// allocation of lines (fractional for a boost-weighted time average):
// the per-core miss rate while executing, scaled by how many of the
// service's testbed.DefaultCoresPerService cores are busy on average.
// This is the quantity the testbed's pressure EWMA tracks.
func (m *Model) memTrafficAtLines(lines float64, pressure, utilization float64) float64 {
	l := int(math.Round(lines))
	cyc := m.CyclesAtLines(l, pressure)
	if cyc <= 0 {
		return 0
	}
	accessesPerSec := m.proc.CyclesPerSecond / cyc
	return m.curve.MissRatio(l) * accessesPerSec * utilization * testbed.DefaultCoresPerService
}

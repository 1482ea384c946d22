package testbed

import (
	"math"
	"math/bits"
	"testing"

	"stac/internal/cat"
	"stac/internal/workload"
)

func TestCalibrateServiceTimePositiveAndStable(t *testing.T) {
	proc := XeonE5_2683()
	for _, k := range workload.All() {
		a, err := CalibrateServiceTime(proc, k, calSetting(), 1<<32, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := CalibrateServiceTime(proc, k, calSetting(), 1<<32, 7)
		if err != nil {
			t.Fatal(err)
		}
		if a <= 0 {
			t.Fatalf("%s: non-positive calibrated service time", k.Name)
		}
		if a != b {
			t.Fatalf("%s: calibration not deterministic", k.Name)
		}
	}
}

func TestCalibrationMoreWaysFaster(t *testing.T) {
	proc := XeonE5_2683()
	bfs := workload.BFS()
	small, err := CalibrateServiceTime(proc, bfs, cat.Setting{Offset: 0, Length: 1}.Mask(), 1<<32, 3)
	if err != nil {
		t.Fatal(err)
	}
	large, err := CalibrateServiceTime(proc, bfs, cat.Setting{Offset: 0, Length: 8}.Mask(), 1<<32, 3)
	if err != nil {
		t.Fatal(err)
	}
	if large >= small {
		t.Fatalf("more ways should not slow BFS down: 1-way %v vs 8-way %v", small, large)
	}
}

func TestConditionValidation(t *testing.T) {
	good := Pair(workload.Redis(), workload.BFS(), 0.5, 0.5, 1, 1, 1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Services = nil
	if bad.Validate() == nil {
		t.Error("empty services accepted")
	}
	bad = good
	bad.Services = append([]ServiceSpec(nil), good.Services...)
	bad.Services[0].Load = 1.5
	if bad.Validate() == nil {
		t.Error("load > 1 accepted")
	}
	bad = good
	bad.CoresPerService = 100
	if bad.Validate() == nil {
		t.Error("core overcommit accepted")
	}
	bad = good
	bad.PrivateWays = 50
	if bad.Validate() == nil {
		t.Error("way overcommit accepted")
	}
	bad = good
	bad.SamplePeriod = -1
	if bad.Validate() == nil {
		t.Error("negative sample period accepted")
	}
}

func TestBandwidthContentionSlowsNeighbours(t *testing.T) {
	// Collocate Jacobi (steady memory traffic, never boosts, disjoint
	// ways) with either a quiet cache-resident neighbour or the streaming
	// workload. Jacobi's cache behaviour is identical in both runs, so
	// any slowdown comes from memory bandwidth pressure.
	run := func(neighbour workload.Kernel) float64 {
		cond := Pair(workload.Jacobi(), neighbour, 0.5, 0.9, NeverBoost, NeverBoost, 11)
		cond.QueriesPerService = 100
		res, err := Run(cond)
		if err != nil {
			t.Fatal(err)
		}
		return res.Service("jacobi").MeanServiceTime()
	}
	quiet := run(workload.KNN())      // cache-resident, almost no misses
	noisy := run(workload.Spstream()) // streaming neighbour
	t.Logf("jacobi mean service time: quiet neighbour %.3g, streaming neighbour %.3g (%.1f%% slower)",
		quiet, noisy, 100*(noisy/quiet-1))
	if noisy <= quiet*1.02 {
		t.Fatalf("streaming neighbour should slow jacobi via bandwidth: %v vs %v", noisy, quiet)
	}
}

// TestCacheResidentWorkloadImmuneToBandwidth pins the complementary
// physics: a workload whose working set fits its private allocation has
// no steady-state memory traffic, so bandwidth pressure cannot touch it.
func TestCacheResidentWorkloadImmuneToBandwidth(t *testing.T) {
	run := func(neighbour workload.Kernel) float64 {
		cond := Pair(workload.KNN(), neighbour, 0.5, 0.9, NeverBoost, NeverBoost, 11)
		cond.QueriesPerService = 100
		res, err := Run(cond)
		if err != nil {
			t.Fatal(err)
		}
		return res.Service("knn").MeanServiceTime()
	}
	quiet := run(workload.KNN())
	noisy := run(workload.Spstream())
	if noisy > quiet*1.05 {
		t.Fatalf("cache-resident knn should barely feel bandwidth pressure: %v vs %v", noisy, quiet)
	}
}

func TestEffectiveAllocationBounds(t *testing.T) {
	cond := Pair(workload.Redis(), workload.BFS(), 0.7, 0.7, 0.5, 0.5, 13)
	cond.QueriesPerService = 100
	res, err := Run(cond)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Services {
		ea := s.EffectiveAllocation()
		if ea <= 0 || ea > 1.6 {
			t.Fatalf("%s effective allocation %v outside plausible (0, 1.6]", s.Name, ea)
		}
	}
}

func TestNeverBoostIsInf(t *testing.T) {
	if !math.IsInf(NeverBoost, 1) {
		t.Fatal("NeverBoost must be +Inf")
	}
}

func TestProcessorsValid(t *testing.T) {
	for _, p := range Processors() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if p.MemBandwidthCap <= 0 {
			t.Errorf("%s: missing bandwidth cap", p.Name)
		}
	}
}

func TestLatencyCostOrdering(t *testing.T) {
	l := DefaultLatencies()
	if !(l.L1Hit < l.L2Hit && l.L2Hit < l.LLCHit && l.LLCHit < l.Memory) {
		t.Fatal("latency ordering violated")
	}
}

// TestAsymmetricPrivateWays: per-service private widths flow through to
// the CLOS masks, and the nil default reproduces the symmetric chain.
func TestAsymmetricPrivateWays(t *testing.T) {
	cond := Pair(workload.Redis(), workload.Social(), 0.5, 0.5, 0, 0, 1)
	cond.PrivateWaysBySvc = []int{5, 9}
	cond.SharedWays = 3
	masks, err := layoutMasks(cond)
	if err != nil {
		t.Fatal(err)
	}
	if got := bits.OnesCount64(masks[0].Default); got != 5 {
		t.Fatalf("service 0 default ways = %d, want 5", got)
	}
	if got := bits.OnesCount64(masks[1].Default); got != 9 {
		t.Fatalf("service 1 default ways = %d, want 9", got)
	}
	if got := bits.OnesCount64(masks[0].Boost); got != 8 {
		t.Fatalf("service 0 boost ways = %d, want 8", got)
	}
	if masks[0].Default&masks[1].Default != 0 {
		t.Fatal("private spans overlap")
	}
	if err := cond.Validate(); err != nil {
		t.Fatal(err)
	}
	// A run must work end to end with the asymmetric layout.
	cond.QueriesPerService = 20
	cond.WarmupQueries = 5
	if _, err := Run(cond); err != nil {
		t.Fatal(err)
	}
	// Validation failures: wrong length, non-positive width, overfull.
	bad := cond
	bad.PrivateWaysBySvc = []int{5}
	if err := bad.Validate(); err == nil {
		t.Error("length mismatch accepted")
	}
	bad = cond
	bad.PrivateWaysBySvc = []int{0, 9}
	if err := bad.Validate(); err == nil {
		t.Error("zero width accepted")
	}
	bad = cond
	bad.PrivateWaysBySvc = []int{12, 12}
	if err := bad.Validate(); err == nil {
		t.Error("overfull layout accepted")
	}
}

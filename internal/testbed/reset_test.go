package testbed

import (
	"reflect"
	"testing"

	"stac/internal/workload"
)

// resetConditions is a spread of conditions that exercises every code
// path Reset must rebuild: different service counts, processors
// (hierarchy geometries), schedules vs generated arrivals, boost
// mechanisms, pool sharing and asymmetric layouts.
func resetConditions() []Condition {
	sched := make([]workload.Query, 60)
	t := 0.0
	for i := range sched {
		t += 9e-5
		sched[i] = workload.Query{ID: i, Arrival: t, Accesses: 700 + 11*i}
	}
	small := Condition{
		Services: []ServiceSpec{
			{Kernel: workload.Redis(), Load: 0.7, Timeout: 1.5},
			{Kernel: workload.BFS(), Load: 0.6, Timeout: NeverBoost},
		},
		Seed: 11, QueriesPerService: 30, WarmupQueries: 5,
	}.Defaults()
	threeSvc := Condition{
		Services: []ServiceSpec{
			{Kernel: workload.KNN(), Load: 0.5, Timeout: 2},
			{Kernel: workload.Kmeans(), Load: 0.6, Timeout: 1, Boost: BoostFrequency},
			{Kernel: workload.Spstream(), Load: 0.4, Timeout: NeverBoost},
		},
		Seed: 23, QueriesPerService: 25, WarmupQueries: 4,
	}.Defaults()
	otherProc := Condition{
		Processor: Xeon2650(),
		Services: []ServiceSpec{
			{Kernel: workload.Social(), Load: 0.65, Timeout: 3},
			{Kernel: workload.Jacobi(), Load: 0.5, Timeout: 0.5},
		},
		Seed: 37, QueriesPerService: 30, WarmupQueries: 5,
	}.Defaults()
	pooled := Condition{
		Services: []ServiceSpec{
			{Kernel: workload.Redis(), Load: 0.7, Timeout: 1},
			{Kernel: workload.KNN(), Load: 0.6, Timeout: 1, Boost: BoostBoth},
		},
		PoolSharing: true,
		Seed:        41, QueriesPerService: 25, WarmupQueries: 4,
	}.Defaults()
	routed := Condition{
		Processor: Xeon2620(),
		Services: []ServiceSpec{
			{Kernel: workload.Redis(), Timeout: NeverBoost, Schedule: sched},
			{Kernel: workload.BFS(), Timeout: 2, Schedule: sched},
		},
		Seed:            53,
		CalibrationSeed: 7,
	}.Defaults()
	return []Condition{small, threeSvc, otherProc, pooled, routed}
}

// sameRunResult compares every measured output of two runs bit for bit.
// Condition and ServiceSpec are skipped: Kernel carries a func field
// (NewPattern), on which reflect.DeepEqual is always false.
func sameRunResult(a, b *RunResult) bool {
	if a.SimTime != b.SimTime || a.Truncated != b.Truncated || len(a.Services) != len(b.Services) {
		return false
	}
	for i := range a.Services {
		sa, sb := a.Services[i], b.Services[i]
		if sa.Name != sb.Name || sa.ExpServiceTime != sb.ExpServiceTime || sa.BoostRatio != sb.BoostRatio ||
			sa.OccupancyLines != sb.OccupancyLines {
			return false
		}
		if !reflect.DeepEqual(sa.Queries, sb.Queries) {
			return false
		}
	}
	return true
}

// TestMachineResetEquivalence pins the tentpole contract of machine
// reuse: running condition B on a machine that previously ran condition
// A (any A, including a different processor geometry) produces results
// byte-identical to a freshly constructed machine's run of B — query
// timings, attributed counters and terminal occupancy.
func TestMachineResetEquivalence(t *testing.T) {
	conds := resetConditions()
	// One persistent machine walks every condition, including repeats so
	// each geometry is both entered and left.
	seq := append(append([]Condition{}, conds...), conds[0], conds[3])
	m, err := NewMachine(seq[0])
	if err != nil {
		t.Fatal(err)
	}
	for step, cond := range seq {
		if step > 0 {
			if err := m.Reset(cond); err != nil {
				t.Fatalf("step %d: reset: %v", step, err)
			}
		}
		got, err := m.Run()
		if err != nil {
			t.Fatalf("step %d: reused run: %v", step, err)
		}
		fresh, err := Run(cond)
		if err != nil {
			t.Fatalf("step %d: fresh run: %v", step, err)
		}
		if !sameRunResult(got, fresh) {
			t.Errorf("step %d: reset machine diverged from fresh machine (seed %d, %d services)",
				step, cond.Seed, len(cond.Services))
		}
	}
}

// TestResetSeedChange pins that Reset actually reseeds: the same
// condition with a different seed must produce a different run (else
// the equivalence test above could pass on stale state).
func TestResetSeedChange(t *testing.T) {
	cond := resetConditions()[0]
	m, err := NewMachine(cond)
	if err != nil {
		t.Fatal(err)
	}
	a, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	cond2 := cond
	cond2.Seed = cond.Seed + 1
	if err := m.Reset(cond2); err != nil {
		t.Fatal(err)
	}
	b, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if sameRunResult(a, b) {
		t.Error("different seeds produced identical runs after Reset")
	}
}

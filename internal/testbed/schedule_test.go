package testbed

import (
	"math"
	"testing"

	"stac/internal/workload"
)

// scheduleCondition builds a two-service condition where the first
// service consumes an explicit pre-routed schedule and the second keeps
// the generated arrival process — the mixed shape a fleet node sees.
func scheduleCondition(qs []workload.Query) Condition {
	cond := Pair(workload.Redis(), workload.KNN(), 0.7, 0.6, NeverBoost, NeverBoost, 23)
	cond.QueriesPerService = 40
	cond.WarmupQueries = 5
	cond.Services[0].Schedule = qs
	return cond
}

func testSchedule(n int) []workload.Query {
	qs := make([]workload.Query, n)
	t := 0.0
	for i := range qs {
		t += 6e-5
		qs[i] = workload.Query{ID: i, Arrival: t, Accesses: 700 + 13*i}
	}
	return qs
}

// TestScheduledServiceRuns pins the external-schedule contract: every
// scheduled query is executed and measured (no warmup discard), in
// order, at exactly its scheduled arrival time.
func TestScheduledServiceRuns(t *testing.T) {
	qs := testSchedule(30)
	res, err := Run(scheduleCondition(qs))
	if err != nil {
		t.Fatal(err)
	}
	sr := res.Service("redis")
	if sr == nil {
		t.Fatal("scheduled service missing from result")
	}
	if len(sr.Queries) != len(qs) {
		t.Fatalf("measured %d scheduled queries, want %d", len(sr.Queries), len(qs))
	}
	for i, q := range sr.Queries {
		if q.Arrival != qs[i].Arrival {
			t.Fatalf("query %d arrived at %v, scheduled %v", i, q.Arrival, qs[i].Arrival)
		}
		if q.Completion < q.Start || q.Start < q.Arrival {
			t.Fatalf("query %d has inconsistent timeline: %+v", i, q)
		}
	}
	// The generated neighbour still honours its own budget.
	if got := len(res.Service("knn").Queries); got != 40 {
		t.Errorf("generated service measured %d queries, want 40", got)
	}
}

// TestEmptyScheduleService: an empty non-nil schedule places the
// service (cores, CAT span) but gives it no traffic — the run must
// terminate immediately for it and still complete the neighbour.
func TestEmptyScheduleService(t *testing.T) {
	res, err := Run(scheduleCondition([]workload.Query{}))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Service("redis").Queries); got != 0 {
		t.Errorf("empty-schedule service measured %d queries, want 0", got)
	}
	if got := len(res.Service("knn").Queries); got != 40 {
		t.Errorf("generated service measured %d queries, want 40", got)
	}
	if res.Truncated {
		t.Error("run with an empty schedule reported truncation")
	}
}

// TestScheduleValidation: decreasing arrivals are rejected; scheduled
// services skip the Load range check.
func TestScheduleValidation(t *testing.T) {
	qs := testSchedule(3)
	qs[2].Arrival = qs[0].Arrival / 2
	cond := scheduleCondition(qs)
	if err := cond.Validate(); err == nil {
		t.Error("decreasing schedule arrivals passed validation")
	}
	ok := scheduleCondition(testSchedule(3))
	ok.Services[0].Load = 0 // ignored for scheduled services
	if err := ok.Validate(); err != nil {
		t.Errorf("scheduled service with zero load rejected: %v", err)
	}
}

// TestScheduleSourceSentinel pins the exhaustion contract the machine
// loop's idle fast-forward relies on: an exhausted schedule peeks an
// infinite arrival.
func TestScheduleSourceSentinel(t *testing.T) {
	s := workload.NewSchedule(testSchedule(2))
	if got := s.Peek(); got != s.Pop() {
		t.Errorf("Peek/Pop disagree: %+v", got)
	}
	s.Pop()
	if got := s.Peek(); !math.IsInf(got.Arrival, 1) {
		t.Errorf("exhausted schedule peeked arrival %v, want +Inf", got.Arrival)
	}
}

// TestCalibrationSeedDecouplesRunSeed: two conditions differing only in
// Seed but sharing a CalibrationSeed calibrate identically (the fleet's
// memoisation requirement), while CalibrationSeed zero preserves the
// historical calibrate-from-Seed behaviour.
func TestCalibrationSeedDecouplesRunSeed(t *testing.T) {
	a := Pair(workload.Redis(), workload.KNN(), 0.7, 0.6, NeverBoost, NeverBoost, 101)
	a.QueriesPerService = 10
	a.WarmupQueries = 2
	a.CalibrationSeed = 7
	b := a
	b.Seed = 202
	ra, err := Run(a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Run(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ra.Services {
		if ra.Services[i].ExpServiceTime != rb.Services[i].ExpServiceTime {
			t.Errorf("service %d calibration moved with run seed despite fixed CalibrationSeed", i)
		}
	}
	if ra.Services[0].Queries[0].Completion == rb.Services[0].Queries[0].Completion {
		t.Error("different run seeds produced identical first-query timing")
	}
}

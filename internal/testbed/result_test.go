package testbed

import (
	"math"
	"testing"

	"stac/internal/workload"
)

func mkQuery(arrival, start, completion float64, boosted bool) QueryResult {
	return QueryResult{Arrival: arrival, Start: start, Completion: completion, Boosted: boosted}
}

func TestQueryResultAccessors(t *testing.T) {
	q := mkQuery(1, 2, 5, true)
	if q.Response() != 4 {
		t.Errorf("Response = %v, want 4", q.Response())
	}
	if q.ServiceTime() != 3 {
		t.Errorf("ServiceTime = %v, want 3", q.ServiceTime())
	}
	if q.QueueDelay() != 1 {
		t.Errorf("QueueDelay = %v, want 1", q.QueueDelay())
	}
}

func TestServiceResultAggregates(t *testing.T) {
	s := ServiceResult{
		Name:           "x",
		ExpServiceTime: 1,
		BoostRatio:     2,
		Queries: []QueryResult{
			mkQuery(0, 0, 2, true),
			mkQuery(0, 1, 3, false),
			mkQuery(0, 2, 4, false),
			mkQuery(0, 3, 5, true),
		},
	}
	if got := s.MeanResponse(); got != (2+3+4+5)/4.0 {
		t.Errorf("MeanResponse = %v", got)
	}
	if got := s.MeanServiceTime(); got != 2 {
		t.Errorf("MeanServiceTime = %v, want 2", got)
	}
	if got := s.BoostedFraction(); got != 0.5 {
		t.Errorf("BoostedFraction = %v, want 0.5", got)
	}
	// EA = (ExpService/meanST)/R = (1/2)/2 = 0.25.
	if got := s.EffectiveAllocation(); got != 0.25 {
		t.Errorf("EffectiveAllocation = %v, want 0.25", got)
	}
	if got := s.P95Response(); got < 4.5 || got > 5 {
		t.Errorf("P95Response = %v", got)
	}
}

func TestServiceResultEmpty(t *testing.T) {
	var s ServiceResult
	if s.BoostedFraction() != 0 {
		t.Error("empty boosted fraction should be 0")
	}
	if s.EffectiveAllocation() != 0 {
		t.Error("empty EA should be 0")
	}
}

func TestRunResultServiceLookup(t *testing.T) {
	r := RunResult{Services: []ServiceResult{{Name: "a"}, {Name: "b"}}}
	if r.Service("b") == nil || r.Service("b").Name != "b" {
		t.Error("lookup failed")
	}
	if r.Service("zz") != nil {
		t.Error("missing service should return nil")
	}
}

func TestPairConditionWiring(t *testing.T) {
	cond := Pair(workload.Redis(), workload.BFS(), 0.6, 0.7, 1.5, math.Inf(1), 99)
	if len(cond.Services) != 2 {
		t.Fatal("pair should have 2 services")
	}
	if cond.Services[0].Load != 0.6 || cond.Services[1].Load != 0.7 {
		t.Error("loads not wired")
	}
	if cond.Services[0].Timeout != 1.5 || !math.IsInf(cond.Services[1].Timeout, 1) {
		t.Error("timeouts not wired")
	}
	if cond.Seed != 99 {
		t.Error("seed not wired")
	}
	if cond.Processor.Name == "" || cond.CoresPerService != 2 {
		t.Error("defaults not applied")
	}
}

func TestDefaultsIdempotent(t *testing.T) {
	c := Pair(workload.Redis(), workload.BFS(), 0.5, 0.5, 1, 1, 1)
	d := c.Defaults()
	if d.QueriesPerService != c.QueriesPerService || d.PrivateWays != c.PrivateWays {
		t.Error("Defaults not idempotent")
	}
}

package testbed

import (
	"testing"

	"stac/internal/workload"
)

// TestRunBitIdentical pins the simulator's determinism contract: two runs
// of the same condition must agree bit for bit, including the low-order
// bits of attributed counter shares. This regressed once when window
// attribution iterated a map of executions — Go randomises map order, so
// the float sums differed by ULPs from run to run, which downstream
// models amplified.
func TestRunBitIdentical(t *testing.T) {
	cond := Pair(workload.Redis(), workload.BFS(), 0.8, 0.6, 1, 2, 71)
	cond.QueriesPerService = 80
	a, err := Run(cond)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cond)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Services) != len(b.Services) {
		t.Fatalf("service count differs: %d vs %d", len(a.Services), len(b.Services))
	}
	for si := range a.Services {
		sa, sb := a.Services[si], b.Services[si]
		if len(sa.Queries) != len(sb.Queries) {
			t.Fatalf("%s: query count differs: %d vs %d", sa.Name, len(sa.Queries), len(sb.Queries))
		}
		for qi := range sa.Queries {
			qa, qb := sa.Queries[qi], sb.Queries[qi]
			if qa.Arrival != qb.Arrival || qa.Start != qb.Start || qa.Completion != qb.Completion {
				t.Fatalf("%s query %d: timings differ", sa.Name, qi)
			}
			if qa.Counters != qb.Counters {
				t.Fatalf("%s query %d: attributed counters differ:\n%v\n%v",
					sa.Name, qi, qa.Counters, qb.Counters)
			}
		}
	}
}

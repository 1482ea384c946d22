package workload

import "math"

// QuerySource is the stream interface the testbed machine consumes: an
// ordered sequence of queries with Peek/Pop semantics. Source (generated
// arrivals) and Schedule (externally routed arrivals) both implement it.
type QuerySource interface {
	// Peek returns the next query without consuming it. An exhausted
	// source reports Arrival = +Inf so pollers stop waiting on it.
	Peek() Query
	// Pop consumes and returns the next query.
	Pop() Query
}

// Schedule replays a fixed, pre-routed query sequence — the fleet
// router's per-node output. Arrivals must be non-decreasing; after the
// last query Peek reports an infinite arrival, which the machine loop
// reads as "no further work from this service".
type Schedule struct {
	queries []Query
	pos     int
}

// NewSchedule wraps a routed query sequence as a source. The slice is
// not copied; callers must not mutate it after handoff.
func NewSchedule(queries []Query) *Schedule {
	return &Schedule{queries: queries}
}

// Peek returns the next query, or a sentinel with Arrival = +Inf when
// the schedule is exhausted.
func (s *Schedule) Peek() Query {
	if s.pos >= len(s.queries) {
		return Query{Arrival: math.Inf(1)}
	}
	return s.queries[s.pos]
}

// Pop consumes and returns the next query. Callers must not Pop past the
// end (the machine loop only pops arrivals Peek reported finite).
func (s *Schedule) Pop() Query {
	q := s.queries[s.pos]
	s.pos++
	return q
}

package testbed

import "stac/internal/cat"

// calSetting is the standard two-way baseline allocation mask used by
// calibration benchmarks and tests.
func calSetting() uint64 { return cat.Setting{Offset: 0, Length: 2}.Mask() }

// BoostedFraction returns the fraction of queries that ran boosted.
func (s ServiceResult) BoostedFraction() float64 {
	if len(s.Queries) == 0 {
		return 0
	}
	n := 0
	for _, q := range s.Queries {
		if q.Boosted {
			n++
		}
	}
	return float64(n) / float64(len(s.Queries))
}

// Service returns the result for the named service, or nil.
func (r *RunResult) Service(name string) *ServiceResult {
	for i := range r.Services {
		if r.Services[i].Name == name {
			return &r.Services[i]
		}
	}
	return nil
}

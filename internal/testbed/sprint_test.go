package testbed

import (
	"testing"

	"stac/internal/workload"
)

func TestBoostKindString(t *testing.T) {
	names := map[BoostKind]string{
		BoostCache: "cache", BoostFrequency: "frequency", BoostBoth: "cache+frequency",
	}
	for k, want := range names {
		if got := k.String(); got != want {
			t.Errorf("BoostKind(%d) = %q, want %q", int(k), got, want)
		}
	}
	if BoostKind(9).String() != "unknown" {
		t.Error("unknown kind should stringify as unknown")
	}
}

// sprintP95 measures knn's p95 under a boost kind at always-boost.
func sprintP95(t *testing.T, kind BoostKind, timeout float64) float64 {
	t.Helper()
	cond := Pair(workload.KNN(), workload.Kmeans(), 0.9, 0.5, timeout, NeverBoost, 37)
	cond.QueriesPerService = 120
	cond.Services[0].Boost = kind
	res, err := Run(cond)
	if err != nil {
		t.Fatal(err)
	}
	return res.Services[0].P95Response()
}

func TestFrequencySprintHelpsComputeBound(t *testing.T) {
	base := sprintP95(t, BoostCache, NeverBoost)
	freq := sprintP95(t, BoostFrequency, 0)
	cacheOnly := sprintP95(t, BoostCache, 0)
	t.Logf("knn p95: never %.3g, freq-boost %.3g, cache-boost %.3g", base, freq, cacheOnly)
	// KNN is cache-resident: frequency must help, extra ways must not.
	if freq >= base*0.9 {
		t.Fatalf("frequency sprint did not speed up compute-bound knn: %v vs %v", freq, base)
	}
	if cacheOnly < base*0.8 {
		t.Fatalf("cache boost speeding up cache-resident knn is implausible: %v vs %v", cacheOnly, base)
	}
}

// frequencySprintRun runs knn always frequency-boosted beside kmeans
// and returns the machine.
func frequencySprintRun(t *testing.T) *Machine {
	t.Helper()
	cond := Pair(workload.KNN(), workload.Kmeans(), 0.9, 0.5, 0, NeverBoost, 41)
	cond.QueriesPerService = 40
	cond.Services[0].Boost = BoostFrequency
	m, err := NewMachine(cond)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFrequencySprintLeavesMaskAlone(t *testing.T) {
	m := frequencySprintRun(t)
	// The frequency-boosted service's LLC mask must still be its default.
	if got := m.h.LLC().Mask(0); got != m.svcs[0].defaultMask {
		t.Fatalf("frequency sprint changed the cache mask: %#x vs default %#x",
			got, m.svcs[0].defaultMask)
	}
}

// TestSprintFactorDefault pins the clock a frequency sprint runs at: the
// always-boosted service's last cost table is built at 1.25×.
func TestSprintFactorDefault(t *testing.T) {
	if got := frequencySprintRun(t).svcs[0].tab.freq; got != 1.25 {
		t.Fatalf("frequency-boosted service ran at clock factor %v, want 1.25", got)
	}
}

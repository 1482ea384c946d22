package mrc

import (
	"math"
	"testing"
	"testing/quick"

	"stac/internal/cache"
	"stac/internal/stats"
	"stac/internal/workload"
)

func TestStackDistanceKnownSequence(t *testing.T) {
	a, err := NewAnalyzer(64)
	if err != nil {
		t.Fatal(err)
	}
	// Lines: A B C A B A. Distances: A,B,C cold; A at distance 2 (B,C
	// touched since), B at distance 2 (C,A since... order: after B's
	// first access, C and A were touched -> distance 2), final A at
	// distance 1 (B touched since the previous A).
	for _, l := range []uint64{0, 64, 128, 0, 64, 0} {
		a.Access(l)
	}
	c := a.Curve()
	if c.Cold != 3 {
		t.Fatalf("cold = %d, want 3", c.Cold)
	}
	if c.Total != 6 {
		t.Fatalf("total = %d, want 6", c.Total)
	}
	wantHist := map[int]uint64{1: 1, 2: 2}
	for d, n := range wantHist {
		if d >= len(c.Hist) || c.Hist[d] != n {
			t.Fatalf("hist[%d] wrong: hist=%v", d, c.Hist)
		}
	}
	// Capacity 3 holds everything: only cold misses. Capacity 2: the two
	// distance-2 accesses miss. Capacity 1: everything misses.
	if got := c.MissRatio(3); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("miss@3 = %v, want 0.5", got)
	}
	if got := c.MissRatio(2); math.Abs(got-(5.0/6)) > 1e-12 {
		t.Fatalf("miss@2 = %v, want 5/6", got)
	}
	if got := c.MissRatio(1); got != 1 {
		t.Fatalf("miss@1 = %v, want 1", got)
	}
}

func TestSameLineAccessesDistanceZero(t *testing.T) {
	a, _ := NewAnalyzer(64)
	a.Access(0)
	a.Access(32) // same 64-byte line
	a.Access(63)
	c := a.Curve()
	if c.Cold != 1 || c.Hist[0] != 2 {
		t.Fatalf("cold=%d hist=%v", c.Cold, c.Hist)
	}
	if got := c.MissRatio(1); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("miss@1 = %v, want 1/3", got)
	}
}

// TestMatchesFullyAssociativeLRUCache cross-validates the analytic curve
// against the simulated cache configured fully associative (1 set).
func TestMatchesFullyAssociativeLRUCache(t *testing.T) {
	r := stats.NewRNG(7)
	trace := make([]uint64, 30000)
	for i := range trace {
		// Zipf-ish over 256 lines with occasional scans.
		if r.Float64() < 0.7 {
			trace[i] = uint64(r.Intn(64)) * 64
		} else {
			trace[i] = uint64(r.Intn(256)) * 64
		}
	}
	a, _ := NewAnalyzer(64)
	for _, addr := range trace {
		a.Access(addr)
	}
	curve := a.Curve()

	for _, capacity := range []int{4, 8, 16, 32, 64} {
		c, err := cache.New(cache.Config{Sets: 1, Ways: capacity, LineSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		for _, addr := range trace {
			c.Access(0, addr, false)
		}
		st := c.Stats(0)
		sim := float64(st.Misses) / float64(st.Accesses())
		analytic := curve.MissRatio(capacity)
		if math.Abs(sim-analytic) > 1e-12 {
			t.Fatalf("capacity %d: simulated %v != analytic %v", capacity, sim, analytic)
		}
	}
}

func TestMissRatioMonotone(t *testing.T) {
	r := stats.NewRNG(11)
	a, _ := NewAnalyzer(64)
	for i := 0; i < 20000; i++ {
		a.Access(uint64(r.Intn(500)) * 64)
	}
	c := a.Curve()
	prev := 1.1
	for cap := 1; cap <= 600; cap *= 2 {
		m := c.MissRatio(cap)
		if m > prev+1e-12 {
			t.Fatalf("miss ratio rose with capacity at %d: %v > %v", cap, m, prev)
		}
		prev = m
	}
}

func TestWorkloadCurves(t *testing.T) {
	// The analytic curves must reproduce Table 1's reuse orderings.
	curveFor := func(k workload.Kernel) *Curve {
		a, _ := NewAnalyzer(64)
		pat := k.NewPattern(0)
		r := stats.NewRNG(13)
		for i := 0; i < 30000; i++ {
			a.Access(pat.Next(r).Addr)
		}
		return a.Curve()
	}
	knn := curveFor(workload.KNN())
	redis := curveFor(workload.Redis())
	// At a 1024-line (64 KiB) capacity, knn must hit nearly always and
	// redis must miss substantially.
	if m := knn.MissRatio(1024); m > 0.05 {
		t.Fatalf("knn analytic miss@64KiB = %v, want < 0.05", m)
	}
	if m := redis.MissRatio(1024); m < 0.15 {
		t.Fatalf("redis analytic miss@64KiB = %v, want > 0.15", m)
	}
}

// naiveDistances computes stack distances with an explicit O(n²) LRU
// stack — the reference the Fenwick implementation must match.
func naiveDistances(lines []uint64) (hist map[int]uint64, cold uint64) {
	hist = map[int]uint64{}
	var stack []uint64
	for _, l := range lines {
		found := -1
		for i := len(stack) - 1; i >= 0; i-- {
			if stack[i] == l {
				found = i
				break
			}
		}
		if found < 0 {
			cold++
			stack = append(stack, l)
			continue
		}
		d := len(stack) - 1 - found
		hist[d]++
		stack = append(stack[:found], stack[found+1:]...)
		stack = append(stack, l)
	}
	return hist, cold
}

func TestStackDistanceMatchesNaiveProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		lines := make([]uint64, len(raw))
		for i, v := range raw {
			lines[i] = uint64(v%16) * 64 // small line space forces reuse
		}
		a, err := NewAnalyzer(64)
		if err != nil {
			return false
		}
		for _, l := range lines {
			a.Access(l)
		}
		c := a.Curve()
		wantHist, wantCold := naiveDistances(lines)
		if c.Cold != wantCold {
			return false
		}
		for d, n := range wantHist {
			if d >= len(c.Hist) || c.Hist[d] != n {
				return false
			}
		}
		var total uint64
		for _, n := range c.Hist {
			total += n
		}
		return total+c.Cold == uint64(len(lines))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNewAnalyzerValidation(t *testing.T) {
	if _, err := NewAnalyzer(0); err == nil {
		t.Error("zero line size accepted")
	}
	if _, err := NewAnalyzer(48); err == nil {
		t.Error("non-power-of-two line size accepted")
	}
}

// TestKernelCurveRejectsEmptyTrace: a curve over no accesses has every
// miss ratio 0, which a model would read as a perfectly cached kernel.
func TestKernelCurveRejectsEmptyTrace(t *testing.T) {
	for _, n := range []int{0, -1} {
		if _, err := KernelCurve(workload.Redis(), 64, n, 13); err == nil {
			t.Errorf("KernelCurve accepted %d accesses", n)
		}
	}
}

func TestAtConvenience(t *testing.T) {
	a, _ := NewAnalyzer(64)
	for _, l := range []uint64{0, 64, 0} {
		a.Access(l)
	}
	vals := a.Curve().At([]int{1, 2})
	if len(vals) != 2 || vals[0] < vals[1] {
		t.Fatalf("At = %v", vals)
	}
}

// TestMissRatioCumMatchesScan: the O(1) cumulative-array path must agree
// with the O(n) suffix-scan reference at every capacity, across ingest /
// query / ingest interleavings (the ingest invalidates the array).
func TestMissRatioCumMatchesScan(t *testing.T) {
	a, _ := NewAnalyzer(64)
	r := stats.NewRNG(17)
	for round := 0; round < 3; round++ {
		for i := 0; i < 5000; i++ {
			a.Access(uint64(r.Intn(800)) * 64)
		}
		c := a.Curve()
		for capLines := 0; capLines <= len(c.Hist)+2; capLines++ {
			if got, want := c.MissRatio(capLines), c.missRatioScan(capLines); math.Abs(got-want) > 1e-12 {
				t.Fatalf("round %d capacity %d: cum %.9f != scan %.9f", round, capLines, got, want)
			}
		}
	}
}

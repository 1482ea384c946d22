package surrogate

import (
	"math"
	"testing"

	"stac/internal/mrc"
	"stac/internal/testbed"
	"stac/internal/workload"
)

func TestSelectIntervalsBasics(t *testing.T) {
	k := workload.Redis()
	cfg := IntervalConfig{Windows: 64, K: 8, Seed: 5}
	iv, err := SelectIntervals(k.NewPattern(0), 40000, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(iv.Spans) == 0 || len(iv.Spans) > cfg.K {
		t.Fatalf("got %d spans for K=%d", len(iv.Spans), cfg.K)
	}
	var wsum float64
	winLen := 40000 / cfg.Windows
	for _, s := range iv.Spans {
		if s.End-s.Start != winLen {
			t.Fatalf("span [%d,%d) is not one window", s.Start, s.End)
		}
		if s.Start%winLen != 0 || s.End > 40000 {
			t.Fatalf("span [%d,%d) misaligned", s.Start, s.End)
		}
		if s.Weight <= 0 {
			t.Fatalf("non-positive weight %v", s.Weight)
		}
		wsum += s.Weight
	}
	if math.Abs(wsum-1) > 1e-9 {
		t.Fatalf("weights sum to %v, want 1", wsum)
	}

	// Determinism: the same config reproduces the same selection.
	iv2, err := SelectIntervals(k.NewPattern(0), 40000, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(iv2.Spans) != len(iv.Spans) {
		t.Fatal("selection not deterministic")
	}
	for i := range iv.Spans {
		if iv.Spans[i] != iv2.Spans[i] {
			t.Fatalf("span %d differs: %+v vs %+v", i, iv.Spans[i], iv2.Spans[i])
		}
	}
}

// The weighted interval curve must track the exact full-trace curve:
// tightly at capacities below the window working set, and never
// optimistically at large capacities (cross-window reuse shows up as
// cold misses, so the estimate is an upper bound there).
func TestIntervalMissRatioTracksExact(t *testing.T) {
	for _, k := range []workload.Kernel{workload.Redis(), workload.BFS(), workload.Social()} {
		exact, err := mrc.KernelCurve(k, testbed.LineSize, 40000, 13)
		if err != nil {
			t.Fatal(err)
		}
		iv, err := SelectIntervals(k.NewPattern(0), 40000, IntervalConfig{Windows: 64, K: 8, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		for _, cap := range []int{32, 128, 512, 2048, 8192} {
			e, est := exact.MissRatio(cap), iv.MissRatio(cap)
			if est < e-0.12 {
				t.Errorf("%s at %d lines: interval estimate %.3f optimistic vs exact %.3f", k.Name, cap, est, e)
			}
			if est > e+0.30 {
				t.Errorf("%s at %d lines: interval estimate %.3f too pessimistic vs exact %.3f", k.Name, cap, est, e)
			}
		}
	}
}

func TestSelectIntervalsRejectsShortTrace(t *testing.T) {
	if _, err := SelectIntervals(workload.Redis().NewPattern(0), 10, IntervalConfig{Windows: 64}); err == nil {
		t.Fatal("short trace accepted")
	}
}

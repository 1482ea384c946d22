package surrogate

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// goldenSearchDigest is the sha256 over the full ranked sweep of every
// plan for redis + social at ρ = 0.9, seed 1: each evaluation's plan,
// predicted means, p95s, speedups, score and boosted fractions, in rank
// order. goldenSearchSimRuns is the number of queueing simulations the
// sweep (and the baseline) actually ran. Both were computed before the
// Stage-3 fast path, which must not move a bit of either.
const (
	goldenSearchDigest  = "fb2465db075a90d4c7429bcadbd26b5fd9029559e53ef3d925913cf0ee99ab21"
	goldenSearchSimRuns = 8447
)

func TestGoldenSearch(t *testing.T) {
	s := redisSocialSearcher(t, Config{})
	ranked, err := s.Search(s.EnumeratePlans())
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf [8]byte
	wf := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, ev := range ranked {
		p := ev.Plan
		wf(float64(p.PrivA))
		wf(float64(p.PrivB))
		wf(float64(p.Shared))
		wf(p.TimeoutA)
		wf(p.TimeoutB)
		for i := 0; i < 2; i++ {
			wf(ev.P95[i])
			wf(ev.Mean[i])
			wf(ev.Speedup[i])
			wf(ev.BoostedFrac[i])
		}
		wf(ev.Score)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenSearchDigest {
		t.Errorf("search digest moved:\n got  %s\n want %s", got, goldenSearchDigest)
	}
	if got := s.SimRuns(); got != goldenSearchSimRuns {
		t.Errorf("SimRuns = %d, want %d", got, goldenSearchSimRuns)
	}
}

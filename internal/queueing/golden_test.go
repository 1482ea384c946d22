package queueing

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"testing"

	"stac/internal/stats"
)

// goldenRunDigest is the sha256 over the full observable surface of
// every run in goldenRunSequence, issued back to back on one Simulator.
// It was computed before the simulator learned to reuse standard
// variates across runs; any change to RNG consumption, draw order or
// float arithmetic moves it.
const goldenRunDigest = "3b66a08e5dc175f1e6ad831add8cc7cf0271fb737116dfc0850abaa41eaf697a"

// goldenRunSequence walks the transitions a long-lived Simulator sees:
// same-seed repeats, runs that grow and shrink, seed changes, the same
// seed with different draw kinds (a cached stream of the wrong kind
// must never be reused), and services with no standard draw (Pareto,
// Uniform, Deterministic), each followed by a return to the common
// (Exponential, Lognormal) seed-1 pattern.
func goldenRunSequence() []Config {
	expLN := func(rate, mean, cv, timeout, boost float64, queries int, seed uint64) Config {
		return Config{
			Servers: 2, Arrival: stats.Exponential{Rate: rate},
			Service: stats.LognormalFromMeanCV(mean, cv),
			Timeout: timeout, BoostRate: boost,
			Queries: queries, Warmup: queries / 10, Seed: seed,
		}
	}
	inf := math.Inf(1)
	cfgs := []Config{
		expLN(1.8, 1, 0.5, 1.5, 1.6, 800, 1),
		expLN(1.8, 1, 0.5, 1.5, 1.6, 800, 1),   // exact repeat
		expLN(1.5, 1.2, 0.4, 0.5, 2.1, 800, 1), // same seed, new parameters
		expLN(1.5, 1.2, 0.4, inf, 1, 2000, 1),  // grows past the cached length
		expLN(1.7, 0.9, 0.6, 0, 1.3, 300, 1),   // shrinks
		expLN(1.7, 0.9, 0.6, 3, 1.3, 1200, 2),  // seed change
		expLN(1.7, 0.9, 0.6, 3, 1.3, 1200, 1),  // back to seed 1
		{ // same seed, (Exp, Exp)
			Servers: 1, Arrival: stats.Exponential{Rate: 0.6}, Service: stats.Exponential{Rate: 1},
			Timeout: 2, BoostRate: 1.5, Queries: 900, Warmup: 90, Seed: 1,
		},
		expLN(1.8, 1, 0.5, 1.5, 1.6, 900, 1), // then (Exp, Lognormal) again
		{ // swapped kinds: (Lognormal, Exp)
			Servers: 3, Arrival: stats.LognormalFromMeanCV(0.4, 1), Service: stats.Exponential{Rate: 1},
			Timeout: 1, BoostRate: 1.8, Queries: 700, Warmup: 0, Seed: 1,
		},
		{
			Servers: 2, Arrival: stats.Exponential{Rate: 1.2}, Service: stats.Pareto{Xm: 0.5, Alpha: 2.5},
			Timeout: 1, BoostRate: 1.4, Queries: 600, Warmup: 60, Seed: 1,
		},
		expLN(1.8, 1, 0.5, 1.5, 1.6, 600, 1),
		{
			Servers: 2, Arrival: stats.Exponential{Rate: 1.6}, Service: stats.Uniform{Lo: 0.2, Hi: 1.8},
			Timeout: 0.5, BoostRate: 2, Queries: 600, Warmup: 60, Seed: 1,
		},
		expLN(1.8, 1, 0.5, 1.5, 1.6, 1000, 1),
		{
			Servers: 4, Arrival: stats.Exponential{Rate: 3.5}, Service: stats.Deterministic{Value: 1},
			Timeout: 0.25, BoostRate: 1.2, Queries: 500, Warmup: 50, Seed: 1,
		},
		expLN(1.8, 1, 0.5, 1.5, 1.6, 1000, 1),
		expLN(1.8, 1, 0.5, 1.5, 1.6, 1000, 3),
		expLN(1.9, 1, 0.3, 4.5, 1.1, 2500, 3),
	}
	return cfgs
}

func hashResult(h interface{ Write([]byte) (int, error) }, r Result) {
	var buf [8]byte
	wf := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	wf(float64(len(r.ResponseTimes)))
	for i := range r.ResponseTimes {
		wf(r.ResponseTimes[i])
		wf(r.QueueDelays[i])
		wf(r.Arrivals[i])
	}
	wf(r.BoostedFrac)
}

// TestGoldenSimulatorRuns pins Simulator.Run across the transition
// sequence, and checks every run against the one-shot Simulate.
func TestGoldenSimulatorRuns(t *testing.T) {
	s := NewSimulator()
	h := sha256.New()
	for i, cfg := range goldenRunSequence() {
		got, err := s.Run(cfg)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		want, err := Simulate(cfg)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("run %d: Simulator.Run diverged from Simulate", i)
		}
		hashResult(h, got)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenRunDigest {
		t.Errorf("simulator run digest moved:\n got  %s\n want %s", got, goldenRunDigest)
	}
}

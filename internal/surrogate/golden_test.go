package surrogate

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"maps"
	"math"
	"runtime"
	"slices"
	"testing"
)

// goldenSearchDigest is the sha256 over the full ranked sweep of every
// plan for redis + social at ρ = 0.9, seed 1: each evaluation's plan,
// predicted means, p95s, speedups, score and boosted fractions, in rank
// order. goldenSearchSimRuns is the sweep's and the baseline's memo
// cells: the queueing simulations the sweep runs. Both were computed
// when memo cells began to be simulated at their own grid configs.
const (
	goldenSearchDigest  = "29d2fb8678e31fa2624372058d364138f739a9dba2cf5cf3202ebee147907c76"
	goldenSearchSimRuns = 8455
)

// atProcs runs fn as one subtest per GOMAXPROCS setting: the searcher
// fans its simulations out over GOMAXPROCS workers, and its results must
// not depend on how many there are.
func atProcs(t *testing.T, fn func(t *testing.T)) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			fn(t)
		})
	}
}

func hashFloat(h hash.Hash, v float64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
	h.Write(buf[:])
}

func hashEvaluation(h hash.Hash, ev Evaluation) {
	p := ev.Plan
	hashFloat(h, float64(p.PrivA))
	hashFloat(h, float64(p.PrivB))
	hashFloat(h, float64(p.Shared))
	hashFloat(h, p.TimeoutA)
	hashFloat(h, p.TimeoutB)
	for i := 0; i < 2; i++ {
		hashFloat(h, ev.P95[i])
		hashFloat(h, ev.Mean[i])
		hashFloat(h, ev.Speedup[i])
		hashFloat(h, ev.BoostedFrac[i])
	}
	hashFloat(h, ev.Score)
}

func TestGoldenSearch(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		s := redisSocialSearcher(t, Config{})
		ranked, err := s.Search(s.EnumeratePlans())
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, ev := range ranked {
			hashEvaluation(h, ev)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != goldenSearchDigest {
			t.Errorf("search digest moved:\n got  %s\n want %s", got, goldenSearchDigest)
		}
		if got := s.SimRuns(); got != goldenSearchSimRuns {
			t.Errorf("SimRuns = %d, want %d", got, goldenSearchSimRuns)
		}
	})
}

// TestSearchWorkersInvariant checks that bounding the searcher's
// fan-outs to one worker, as a server keeping cores for its predicts
// does, returns the same sweep as GOMAXPROCS workers.
func TestSearchWorkersInvariant(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	s := redisSocialSearcher(t, Config{Workers: 1})
	ranked, err := s.Search(s.EnumeratePlans())
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, ev := range ranked {
		hashEvaluation(h, ev)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenSearchDigest {
		t.Errorf("search digest at 1 worker:\n got  %s\n want %s", got, goldenSearchDigest)
	}
	if got := s.SimRuns(); got != goldenSearchSimRuns {
		t.Errorf("SimRuns = %d, want %d", got, goldenSearchSimRuns)
	}
	if len(s.sims) != 1 {
		t.Errorf("%d simulators at 1 worker, want 1", len(s.sims))
	}
}

// TestWarmMemoMatchesFresh drives one searcher through interleaved calls
// that share its memo — 40 scattered Evaluate calls, a Search over the
// even-indexed plans, a Search over the odd-indexed plans in reverse,
// then 80 more scattered Evaluate calls — and checks every result
// against a fresh searcher's evaluation of the same plan.
func TestWarmMemoMatchesFresh(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		s := redisSocialSearcher(t, Config{})
		built := redisSocialSearcher(t, Config{})
		check := func(ev Evaluation) {
			t.Helper()
			// A copy of a searcher as New left it is a fresh searcher; it
			// hands the simulators it grew back to the original.
			fresh := *built
			fresh.memo = maps.Clone(built.memo)
			want, err := fresh.Evaluate(ev.Plan)
			if err != nil {
				t.Fatal(err)
			}
			built.sims = fresh.sims
			if ev != want {
				t.Fatalf("warm memo evaluates %v as %+v, a fresh searcher as %+v", ev.Plan, ev, want)
			}
		}
		plans := s.EnumeratePlans()
		evaluate := func(n, stride, offset int) {
			for k := 0; k < n; k++ {
				ev, err := s.Evaluate(plans[(k*stride+offset)%len(plans)])
				if err != nil {
					t.Fatal(err)
				}
				check(ev)
			}
		}
		search := func(plans []Plan) {
			ranked, err := s.Search(plans)
			if err != nil {
				t.Fatal(err)
			}
			for _, ev := range ranked {
				check(ev)
			}
		}
		var even, odd []Plan
		for i, p := range plans {
			if i%2 == 0 {
				even = append(even, p)
			} else {
				odd = append(odd, p)
			}
		}
		slices.Reverse(odd)

		evaluate(40, 977, 0)
		search(even)
		search(odd)
		evaluate(80, 613, 5)
	})
}

// TestSweepOrderIndependent sweeps every plan forward and in reverse on
// two fresh searchers: each plan's evaluation and the simulation count
// must not depend on the order. It also checks that every cell of the
// sweep, the never-boost cells included, is simulated at a config that
// maps back to the cell.
func TestSweepOrderIndependent(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		fwd := redisSocialSearcher(t, Config{})
		rev := redisSocialSearcher(t, Config{})
		plans := fwd.EnumeratePlans()
		a, err := fwd.sweep(plans)
		if err != nil {
			t.Fatal(err)
		}
		plans = slices.Clone(plans)
		slices.Reverse(plans)
		b, err := rev.sweep(plans)
		if err != nil {
			t.Fatal(err)
		}
		slices.Reverse(b)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("plan %v: forward sweep %+v, reverse sweep %+v", a[j].Plan, a[j], b[j])
			}
		}
		if fwd.SimRuns() != rev.SimRuns() {
			t.Errorf("SimRuns: forward %d, reverse %d", fwd.SimRuns(), rev.SimRuns())
		}

		nevers := 0
		for k := range fwd.memo {
			if got := keyOf(k.config()); got != k {
				t.Errorf("keyOf(%+v.config()) = %+v", k, got)
			}
			if k.timeout == never {
				nevers++
			}
		}
		if nevers == 0 {
			t.Error("the sweep filled no never-boost cell")
		}
	})
}

package surrogate

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"runtime"
	"slices"
	"testing"
)

// goldenSearchDigest is the sha256 over the full ranked sweep of every
// plan for redis + social at ρ = 0.9, seed 1: each evaluation's plan,
// predicted means, p95s, speedups, score and boosted fractions, in rank
// order. goldenSearchSimRuns is the sweep's and the baseline's memo
// misses: the queueing simulations a one-by-one sweep runs. Both were
// computed before the Stage-3 fast path, which must not move a bit of
// either.
const (
	goldenSearchDigest  = "fb2465db075a90d4c7429bcadbd26b5fd9029559e53ef3d925913cf0ee99ab21"
	goldenSearchSimRuns = 8447
)

// goldenWarmMemoDigest is the sha256 over one Searcher (redis + social,
// ρ = 0.9, seed 1) driven through interleaved calls that share its memo:
// 40 scattered Evaluate calls, a Search over the even-indexed plans, a
// Search over the odd-indexed plans in reverse, then 80 more scattered
// Evaluate calls, with SimRuns after each phase. It was computed on the
// serial sweep, before the sweep's simulations were fanned out.
const goldenWarmMemoDigest = "16b2ab651e2ab29bc97bba80eb7166b2842bd583ee74e08cda85ea0a688dad80"

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

func TestGoldenWarmMemo(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		s := redisSocialSearcher(t, Config{})
		plans := s.EnumeratePlans()
		h := sha256.New()
		evaluate := func(n, stride, offset int) {
			for k := 0; k < n; k++ {
				ev, err := s.Evaluate(plans[(k*stride+offset)%len(plans)])
				if err != nil {
					t.Fatal(err)
				}
				hashEvaluation(h, ev)
			}
			hashFloat(h, float64(s.SimRuns()))
		}
		search := func(plans []Plan) {
			ranked, err := s.Search(plans)
			if err != nil {
				t.Fatal(err)
			}
			for _, ev := range ranked {
				hashEvaluation(h, ev)
			}
			hashFloat(h, float64(s.SimRuns()))
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
		if got := hex.EncodeToString(h.Sum(nil)); got != goldenWarmMemoDigest {
			t.Errorf("warm-memo digest moved:\n got  %s\n want %s", got, goldenWarmMemoDigest)
		}
	})
}

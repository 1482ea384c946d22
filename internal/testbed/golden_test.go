package testbed

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"stac/internal/workload"
)

// goldenDigest canonically serialises a run result — per-query timings
// and attributed counters, each service's calibrated service time and
// boost ratio, and total simulated time — and hashes it. Any change to
// RNG consumption order, float accumulation order or sampling semantics
// shifts the digest, so these tests freeze the machine loop's exact
// behaviour across refactors (the event-calendar rewrite must not move
// a single bit).
func goldenDigest(res *RunResult) string {
	h := sha256.New()
	le := binary.LittleEndian
	var buf [8]byte
	wf := func(v float64) {
		le.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	wi := func(v int) {
		le.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	wf(res.SimTime)
	wi(len(res.Services))
	for _, s := range res.Services {
		h.Write([]byte(s.Name))
		wf(s.ExpServiceTime)
		wf(s.BoostRatio)
		wi(len(s.Queries))
		for _, q := range s.Queries {
			wf(q.Arrival)
			wf(q.Start)
			wf(q.Completion)
			if q.Boosted {
				wi(1)
			} else {
				wi(0)
			}
			for _, c := range q.Counters {
				wf(c)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenConditions covers the loop's behavioural corners: a boosting
// pair (cache boost + queueing), a never-boost bandwidth-contention
// pair, a frequency-sprint pair, and the pool-sharing layout.
func goldenConditions() map[string]Condition {
	boost := Pair(workload.Redis(), workload.BFS(), 0.8, 0.8, 1, 1, 5)
	boost.QueriesPerService = 60
	boost.WarmupQueries = 10

	contend := Pair(workload.Jacobi(), workload.Spstream(), 0.5, 0.9, NeverBoost, NeverBoost, 11)
	contend.QueriesPerService = 50
	contend.WarmupQueries = 10

	sprint := Pair(workload.Redis(), workload.KNN(), 0.7, 0.6, 0.5, 1.5, 41)
	sprint.QueriesPerService = 50
	sprint.WarmupQueries = 10
	sprint.Services[0].Boost = BoostFrequency
	sprint.Services[1].Boost = BoostBoth

	pool := Pair(workload.Redis(), workload.BFS(), 0.6, 0.6, 1, 1, 13)
	pool.QueriesPerService = 50
	pool.WarmupQueries = 10
	pool.PoolSharing = true

	return map[string]Condition{
		"boost-pair":   boost,
		"contend-pair": contend,
		"sprint-pair":  sprint,
		"pool-pair":    pool,
	}
}

// goldenWant pins the post-bugfix digests. When a semantic change is
// intended, rerun the test and copy the new digests from the failure
// output — and regenerate the capture in the same commit, noting the
// move in EXPERIMENTS.md. A digest change without a capture change is
// a red flag.
var goldenWant = map[string]string{
	"boost-pair":   "fe4d8af51276ff5c98e24144274a7508881b486804689b8fc95a752741cf5c41",
	"contend-pair": "78e97e17ca29bf547ca647481e989b098893e90593e68130f221f22db2165d2b",
	"sprint-pair":  "ef21da49e0c362602759a74b82413c0acceaff399b92f459db214576b8d09ddd",
	"pool-pair":    "81a238fc363750d165a3faa1971a43cd39522cdd477e00f71447840777f7bc16",
}

func TestGoldenRunTraces(t *testing.T) {
	for name, cond := range goldenConditions() {
		res, err := Run(cond)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := goldenDigest(res)
		if got != goldenWant[name] {
			t.Errorf("%s: run digest %s, want %s — the machine loop's observable behaviour moved",
				name, got, goldenWant[name])
		}
	}
}

// TestRunBatchWorkerInvariant pins RunBatch's determinism contract: the
// golden conditions fanned out over 1, 2 and 8 workers must produce the
// exact golden digests in condition order — scheduling must never leak
// into results (each condition's RNG streams derive from its own Seed
// before dispatch).
func TestRunBatchWorkerInvariant(t *testing.T) {
	var names []string
	var conds []Condition
	for name, cond := range goldenConditions() {
		names = append(names, name)
		conds = append(conds, cond)
	}
	for _, workers := range []int{1, 2, 8} {
		results, err := RunBatch(workers, conds)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, res := range results {
			if got := goldenDigest(res); got != goldenWant[names[i]] {
				t.Errorf("workers=%d %s: digest %s, want %s", workers, names[i], got, goldenWant[names[i]])
			}
		}
	}
}

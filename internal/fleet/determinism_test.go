package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"
	"sync"
	"testing"

	"stac/internal/obs"
)

// fleetDigest canonically serialises everything observable in a fleet
// result — every raw response time in (epoch, node, service, query)
// order, the merged per-node and per-service statistics, router
// counters and the migration log — and hashes it. Worker-invariance and
// seed-replay tests compare these digests byte for byte.
func fleetDigest(res *Result) string {
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
	ws := func(s string) {
		wi(len(s))
		h.Write([]byte(s))
	}
	ws(res.Policy)
	wi(res.Epochs)
	wf(res.EpochLen)
	wi(res.Queries)
	wf(res.FleetMean)
	wf(res.FleetP95)
	wi(res.Truncated)
	for _, v := range res.EpochP95 {
		wf(v)
	}
	for _, v := range res.responses {
		wf(v)
	}
	for _, n := range res.Nodes {
		ws(n.Name)
		wi(n.Queries)
		wf(n.Mean)
		wf(n.P95)
		wf(n.MaxBacklog)
		keys := make([]string, 0, len(n.Routed))
		for k := range n.Routed {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			ws(k)
			wi(n.Routed[k])
		}
	}
	for _, s := range res.Services {
		ws(s.Name)
		wi(s.Queries)
		wf(s.Mean)
		wf(s.P95)
		wf(s.SLA)
		wi(s.Migrations)
		for _, v := range s.EpochP95 {
			wf(v)
		}
		for _, n := range s.FinalNodes {
			ws(n)
		}
	}
	for _, m := range res.Migrations {
		wi(m.Epoch)
		ws(m.Service)
		ws(m.From)
		ws(m.To)
		ws(m.Reason)
		wf(m.PredictedFrom)
		wf(m.PredictedTo)
		wf(m.SLA)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenFleet are the pinned scenario digests: the drain scenario
// exercises forced migration, re-routing and heterogeneous nodes; the
// balance config exercises replicated routing under power-of-two-
// choices; hotshift makes one SLA move, so the epoch it first serves is
// speculated under the old placement and re-run; locality routes on
// the previous epoch's warmth and is never speculated; diurnal varies
// the arrival rate every epoch. When a semantic change to the fleet (or
// the underlying machine loop) is intended, rerun and copy the new
// digests from the failure output in the same commit.
var goldenFleet = map[string]string{
	"drain":    "ef564239356d1ba8466644abcbc232d13a243275bb51a7d105ceb4458fdc5fc0",
	"balance":  "8b1210d7e09eac5207d2eb8b89723b5b5ee2023764ad0d279e001724fdc050b1",
	"hotshift": "32c35bcb5c056d9f273fd62983db66d31ead640f0dbe4b94afb67b3517e4ad21",
	"locality": "980b76f05522c09bd112dd4dd890d5cd2a965bd65bc26261dba5ea3d4e1870ab",
	"diurnal":  "1a92dcadf7b1b44470cf82815b1d22be595538846b75de0e72652e7c3a87539b",
}

func goldenFleetConfigs() map[string]Config {
	drain := ScenarioDrain(11)
	drain.Epochs = 4
	hot := ScenarioHotShift(7, true)
	hot.Epochs = 6
	return map[string]Config{
		"drain":    drain,
		"balance":  balanceConfig(5, PowerOfTwo),
		"hotshift": hot,
		"locality": balanceConfig(9, Locality),
		"diurnal":  ScenarioDiurnal(3),
	}
}

// goldenRun is one golden config run at one worker count: its digest,
// or the error Run returned, and how far it moved the pipeline counters.
type goldenRun struct {
	name     string
	workers  int
	digest   string
	err      error
	spec     uint64 // fleet/speculative_runs
	discards uint64 // fleet/speculative_discards
	plans    uint64 // fleet/speculative_plans
	dropped  uint64 // fleet/speculative_plans_discarded
	nodeRuns uint64 // fleet/node_runs
	testbed  uint64 // testbed/runs
}

var (
	goldenRunsOnce sync.Once
	goldenRunsAll  []goldenRun
)

// goldenRuns runs every golden config once at 1, 2 and 8 workers, in
// name order, and records each run's digest and counter deltas, so
// TestFleetWorkerInvariant and TestSpeculationOutcomes check the same
// runs instead of making them twice. No fleet test runs in parallel, so
// each delta belongs to its run alone.
func goldenRuns() []goldenRun {
	goldenRunsOnce.Do(func() {
		specRuns := obs.C("fleet/speculative_runs")
		discards := obs.C("fleet/speculative_discards")
		plans := obs.C("fleet/speculative_plans")
		dropped := obs.C("fleet/speculative_plans_discarded")
		nodeRuns := obs.C("fleet/node_runs")
		testbedRuns := obs.C("testbed/runs")
		cfgs := goldenFleetConfigs()
		names := make([]string, 0, len(cfgs))
		for name := range cfgs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			for _, workers := range []int{1, 2, 8} {
				c := cfgs[name]
				c.Workers = workers
				spec0, disc0 := specRuns.Load(), discards.Load()
				plans0, dropped0 := plans.Load(), dropped.Load()
				node0, tb0 := nodeRuns.Load(), testbedRuns.Load()
				r := goldenRun{name: name, workers: workers}
				res, err := Run(c)
				if err != nil {
					r.err = err
				} else {
					r.digest = fleetDigest(res)
				}
				r.spec, r.discards = specRuns.Load()-spec0, discards.Load()-disc0
				r.plans, r.dropped = plans.Load()-plans0, dropped.Load()-dropped0
				r.nodeRuns, r.testbed = nodeRuns.Load()-node0, testbedRuns.Load()-tb0
				goldenRunsAll = append(goldenRunsAll, r)
			}
		}
	})
	return goldenRunsAll
}

// TestFleetWorkerInvariant pins the tentpole determinism contract: a
// fleet run fanned out over 1, 2 and 8 workers produces byte-identical
// results, equal to the pinned golden digest. Per-node seeds are drawn
// sequentially before dispatch, so scheduling can never leak into
// results. Replaying hotshift is covered here too: its golden digest
// hashes every MigrationEvent field.
func TestFleetWorkerInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("15 golden fleet runs")
	}
	for _, r := range goldenRuns() {
		if r.err != nil {
			t.Fatalf("%s workers=%d: %v", r.name, r.workers, r.err)
		}
		if r.digest != goldenFleet[r.name] {
			t.Errorf("%s workers=%d: digest %s, want %s — fleet results depend on scheduling or drifted",
				r.name, r.workers, r.digest, goldenFleet[r.name])
		}
	}
}

// TestSeedChangesResult is the digest's sanity counterweight: different
// seeds must produce different runs (otherwise the pins above pin
// nothing). The golden balance run is seed 5.
func TestSeedChangesResult(t *testing.T) {
	res, err := Run(balanceConfig(6, PowerOfTwo))
	if err != nil {
		t.Fatal(err)
	}
	if fleetDigest(res) == goldenFleet["balance"] {
		t.Error("seeds 5 and 6 produced identical fleet digests")
	}
}

package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"sort"
	"testing"
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

// TestFleetWorkerInvariant pins the tentpole determinism contract: a
// fleet run fanned out over 1, 2 and 8 workers produces byte-identical
// results, equal to the pinned golden digest. Per-node seeds are drawn
// sequentially before dispatch, so scheduling can never leak into
// results.
func TestFleetWorkerInvariant(t *testing.T) {
	for name, cfg := range goldenFleetConfigs() {
		for _, workers := range []int{1, 2, 8} {
			c := cfg
			c.Workers = workers
			res, err := Run(c)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if got := fleetDigest(res); got != goldenFleet[name] {
				t.Errorf("%s workers=%d: digest %s, want %s — fleet results depend on scheduling or drifted",
					name, workers, got, goldenFleet[name])
			}
		}
	}
}

// TestMigrationLogReplay pins migrator determinism: replaying the
// hot-shift scenario under the same seed reproduces the identical
// migration log, and the model-predicted p95s in it are bit-equal.
func TestMigrationLogReplay(t *testing.T) {
	cfg := ScenarioHotShift(17, true)
	cfg.Epochs = 4
	cfg.Workers = 2
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Migrations) == 0 {
		t.Fatal("hot-shift scenario produced no migrations — nothing to replay")
	}
	if !reflect.DeepEqual(a.Migrations, b.Migrations) {
		t.Errorf("migration logs diverge under seed replay:\n  first  %+v\n  second %+v", a.Migrations, b.Migrations)
	}
	if fleetDigest(a) != fleetDigest(b) {
		t.Error("full fleet digests diverge under seed replay")
	}
}

// TestSeedChangesResult is the digest's sanity counterweight: different
// seeds must produce different runs (otherwise the pins above pin
// nothing).
func TestSeedChangesResult(t *testing.T) {
	a, err := Run(balanceConfig(5, PowerOfTwo))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(balanceConfig(6, PowerOfTwo))
	if err != nil {
		t.Fatal(err)
	}
	if fleetDigest(a) == fleetDigest(b) {
		t.Error("different seeds produced identical fleet digests")
	}
}

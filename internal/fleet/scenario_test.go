package fleet

import (
	"strings"
	"testing"

	"stac/internal/stats"
	"stac/internal/workload"
)

// TestScenarioDrain pins the node-failure/drain story: at the drain
// epoch every service leaves the drained node (forced "drain"
// migrations), no service ends the run placed there, and the fleet
// still completes every query.
func TestScenarioDrain(t *testing.T) {
	cfg := ScenarioDrain(1)
	cfg.Workers = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated != 0 {
		t.Errorf("%d node runs truncated", res.Truncated)
	}
	drains := 0
	for _, m := range res.Migrations {
		if m.Reason != "drain" {
			continue
		}
		drains++
		if m.From != "mid" {
			t.Errorf("drain migration left %s, want mid", m.From)
		}
		if m.Epoch != cfg.DrainEpoch {
			t.Errorf("drain migration at epoch %d, want %d", m.Epoch, cfg.DrainEpoch)
		}
	}
	// The pinned placement hosts two services on mid (one redis replica,
	// knn); both must be forced off.
	if drains != 2 {
		t.Errorf("%d drain migrations, want 2: %+v", drains, res.Migrations)
	}
	for _, s := range res.Services {
		for _, n := range s.FinalNodes {
			if n == "mid" {
				t.Errorf("service %s still placed on drained node", s.Name)
			}
		}
	}
	// Traffic kept flowing after the drain: the post-drain epochs have
	// measured p95s for the displaced services.
	for _, name := range []string{"redis", "knn"} {
		s := res.Service(name)
		for e := cfg.DrainEpoch; e < cfg.Epochs; e++ {
			if s.EpochP95[e] <= 0 {
				t.Errorf("service %s epoch %d has no traffic after drain", name, e)
			}
		}
	}
}

// TestScenarioHotShiftMigratorBeatsStatic is the acceptance check for
// the model-driven migrator: under the hot-service shift, migration
// must produce a (much) lower fleet-wide p95 than static placement, via
// at least one SLA-triggered move off the overloaded node.
func TestScenarioHotShiftMigratorBeatsStatic(t *testing.T) {
	seed := uint64(1)
	static, err := Run(withWorkers(ScenarioHotShift(seed, false), 2))
	if err != nil {
		t.Fatal(err)
	}
	migrated, err := Run(withWorkers(ScenarioHotShift(seed, true), 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(static.Migrations) != 0 {
		t.Fatalf("static baseline migrated: %+v", static.Migrations)
	}
	moved := false
	for _, m := range migrated.Migrations {
		if m.Service == "redis" && m.Reason == "sla" && m.From == "small" {
			moved = true
		}
	}
	if !moved {
		t.Fatalf("migrator never moved the hot service off the small node: %+v", migrated.Migrations)
	}
	if migrated.FleetP95 >= static.FleetP95*0.5 {
		t.Errorf("migrated fleet p95 %.4g not clearly below static %.4g",
			migrated.FleetP95, static.FleetP95)
	}
	// The hot service itself must be rescued, not just diluted.
	if hot, cold := migrated.Service("redis").P95, static.Service("redis").P95; hot >= cold*0.5 {
		t.Errorf("migrated redis p95 %.4g not clearly below static %.4g", hot, cold)
	}
}

// TestMigrateReturnsCalibrationError: a solo calibration that fails
// fails the migrator's pass, where it used to stand in the reference
// node's solo time uncounted. No validated Config reaches that path, so
// the test breaks the hot service's node after set-up.
func TestMigrateReturnsCalibrationError(t *testing.T) {
	st, err := newState(ScenarioHotShift(1, true).Defaults())
	if err != nil {
		t.Fatal(err)
	}
	for i := range st.cfg.Services {
		for n := range st.cfg.Nodes {
			st.meas[i][n] = st.expRef[i] * 1.1
		}
	}
	st.cfg.Nodes[st.placement[0][0]].Processor.Ways = 0
	if err := st.migrate(1); err == nil || !strings.Contains(err.Error(), "calibrating") {
		t.Fatalf("migrate on a node whose calibration fails: error %v, want the calibration error", err)
	}
}

// TestScenarioRollout: the rolling CAT-plan change completes all
// epochs, and actually changes machine behaviour relative to the
// identical configuration without the rollout.
func TestScenarioRollout(t *testing.T) {
	roll, err := Run(withWorkers(ScenarioRollout(1), 2))
	if err != nil {
		t.Fatal(err)
	}
	if roll.Truncated != 0 {
		t.Errorf("%d node runs truncated", roll.Truncated)
	}
	base, err := Run(withWorkers(ScenarioStatic(1), 2))
	if err != nil {
		t.Fatal(err)
	}
	if fleetDigest(roll) == fleetDigest(base) {
		t.Error("rollout produced a bit-identical run — the plan change never reached the machines")
	}
	if roll.Queries != base.Queries {
		t.Errorf("rollout changed the arrival stream (%d vs %d queries) — it must only change CAT plans",
			roll.Queries, base.Queries)
	}
}

// TestScenarioDiurnal: opposite-phase rate profiles flow through to
// per-epoch traffic (each service's busiest epoch matches its profile
// peak) and replicated services spread over multiple nodes under
// power-of-two-choices.
func TestScenarioDiurnal(t *testing.T) {
	res, err := Run(withWorkers(ScenarioDiurnal(1), 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated != 0 {
		t.Errorf("%d node runs truncated", res.Truncated)
	}
	for _, name := range []string{"redis", "social"} {
		nodes := 0
		for _, n := range res.Nodes {
			if n.Routed[name] > 0 {
				nodes++
			}
		}
		if nodes < 2 {
			t.Errorf("replicated service %s routed to %d nodes, want >=2", name, nodes)
		}
	}
}

// TestScenarioByName round-trips every scenario and rejects garbage.
func TestScenarioByName(t *testing.T) {
	for _, name := range ScenarioNames() {
		cfg, err := ScenarioByName(name, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := cfg.Defaults().Validate(); err != nil {
			t.Errorf("%s: invalid config: %v", name, err)
		}
	}
	if _, err := ScenarioByName("nope", 1); err == nil ||
		!strings.Contains(err.Error(), "unknown scenario") {
		t.Errorf("ScenarioByName(nope) error = %v", err)
	}
}

// TestSplitMergeRoundTrip pins the router as a lossless splitter: a
// query sequence split across three nodes by every routing policy
// re-merges (by arrival, then id) into exactly the original sequence —
// no query lost, duplicated, reordered or mutated.
func TestSplitMergeRoundTrip(t *testing.T) {
	rng := stats.NewRNG(42)
	orig := make([]workload.Query, 400)
	tm := 0.0
	for i := range orig {
		tm += rng.Float64() * 1e-4
		orig[i] = workload.Query{ID: i, Arrival: tm, Accesses: 1 + rng.Intn(5000)}
	}

	cfg := Config{
		Nodes: threeNodes(),
		Services: []ServiceSpec{
			{Kernel: workload.Redis(), Load: 0.5, Replicas: 3},
		},
	}.Defaults()
	for _, policy := range Policies() {
		cfg.Policy = policy
		r := newRouter(cfg, stats.NewRNG(7))
		warmth := []float64{3, 1, 2}
		parts := make([][]workload.Query, len(cfg.Nodes))
		for _, q := range orig {
			n := r.route(0, q.Arrival, []int{0, 1, 2}, warmth, 1e-5)
			parts[n] = append(parts[n], q)
		}
		merged := mergeByArrival(parts)
		if len(merged) != len(orig) {
			t.Fatalf("%v: merged %d queries, want %d", policy, len(merged), len(orig))
		}
		for i := range orig {
			if merged[i] != orig[i] {
				t.Fatalf("%v: query %d diverged after split+merge: %+v vs %+v",
					policy, i, merged[i], orig[i])
			}
		}
	}
}

// mergeByArrival k-way merges per-node schedules by (arrival, id) —
// the inverse of the router's split.
func mergeByArrival(parts [][]workload.Query) []workload.Query {
	pos := make([]int, len(parts))
	var out []workload.Query
	for {
		best := -1
		for n := range parts {
			if pos[n] >= len(parts[n]) {
				continue
			}
			q := parts[n][pos[n]]
			if best < 0 {
				best = n
				continue
			}
			b := parts[best][pos[best]]
			if q.Arrival < b.Arrival || (q.Arrival == b.Arrival && q.ID < b.ID) {
				best = n
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, parts[best][pos[best]])
		pos[best]++
	}
}

func withWorkers(cfg Config, w int) Config {
	cfg.Workers = w
	return cfg
}

// Service returns the named service's result, or nil.
func (r *Result) Service(name string) *ServiceResult {
	for i := range r.Services {
		if r.Services[i].Name == name {
			return &r.Services[i]
		}
	}
	return nil
}

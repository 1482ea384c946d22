package fleet

import (
	"testing"

	"stac/internal/stats"
	"stac/internal/testbed"
	"stac/internal/workload"
)

// benchConfig is a small but complete fleet: three heterogeneous nodes,
// four services (one replicated), three epochs.
func benchConfig() Config {
	return Config{
		Nodes: threeNodes(),
		Services: []ServiceSpec{
			{Kernel: workload.Redis(), Load: 0.6, Replicas: 2},
			{Kernel: workload.KNN(), Load: 0.55},
			{Kernel: workload.BFS(), Load: 0.5},
			{Kernel: workload.Kmeans(), Load: 0.5},
		},
		Policy: LeastLoaded, Epochs: 3, EpochQueries: 40, Seed: 3, Workers: 1,
	}
}

// BenchmarkFleetRun measures the full fleet step rate — arrival
// generation, routing, per-node machine simulation and merging — in
// fleet queries per second of wall clock (single worker, the serial
// floor).
func BenchmarkFleetRun(b *testing.B) {
	cfg := benchConfig()
	warm, err := Run(cfg) // populate the calibration memo outside the timer
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		total += res.Queries
	}
	b.StopTimer()
	if total > 0 {
		b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "queries/s")
	}
	_ = warm
}

// BenchmarkFleetRunHotShift measures the hot-shift scenario with the
// migrator at GOMAXPROCS workers, in fleet queries per second of wall
// clock. Here the epoch pipeline pays off: the big node's run of epoch
// e+1 overlaps its run of epoch e, which a single worker cannot show.
func BenchmarkFleetRunHotShift(b *testing.B) {
	cfg := ScenarioHotShift(3, true)
	cfg.Workers = 0
	if _, err := Run(cfg); err != nil { // populate the calibration memo outside the timer
		b.Fatal(err)
	}
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		total += res.Queries
	}
	b.StopTimer()
	if total > 0 {
		b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "queries/s")
	}
}

// BenchmarkMigrationDecision measures the latency of one full migrator
// pass — per-replica queueing-model predictions plus candidate
// evaluation — over a fleet state primed so the hot service misses its
// SLA (the expensive path: every candidate is simulated).
func BenchmarkMigrationDecision(b *testing.B) {
	cfg := ScenarioHotShift(1, true).Defaults()
	st, err := newState(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := range st.cfg.Services {
		for n := range st.cfg.Nodes {
			st.meas[i][n] = st.expRef[i] * 1.1
		}
	}
	placement := make([][]int, len(st.placement))
	for i := range st.placement {
		placement[i] = append([]int(nil), st.placement[i]...)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range placement {
			st.placement[j] = append(st.placement[j][:0], placement[j]...)
		}
		st.migrations = st.migrations[:0]
		for n := range st.cold {
			for j := range st.cold[n] {
				st.cold[n][j] = 0
			}
		}
		// migrate after epoch 1: the hot service's profile doubles at
		// epoch 2, so the model predicts the miss and evaluates moves.
		if err := st.migrate(1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if len(st.migrations) == 0 {
		b.Fatal("benchmark state never triggered a migration — not measuring the decision path")
	}
}

// BenchmarkRouterRoute measures one routing decision (drain + pick +
// backlog update) under power-of-two-choices.
func BenchmarkRouterRoute(b *testing.B) {
	cfg := Config{
		Nodes: threeNodes(),
		Services: []ServiceSpec{
			{Kernel: workload.Redis(), Load: 0.5, Replicas: 3},
		},
	}.Defaults()
	cfg.Policy = PowerOfTwo
	r := newRouter(cfg, stats.NewRNG(7))
	eligible := []int{0, 1, 2}
	warmth := make([]float64, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.route(0, float64(i)*1e-6, eligible, warmth, 1e-5)
	}
}

// BenchmarkNodeEpoch measures one node's epoch in isolation: a machine
// run over a routed schedule (the unit the per-epoch fan-out
// parallelises).
func BenchmarkNodeEpoch(b *testing.B) {
	qs := make([]workload.Query, 120)
	t := 0.0
	for i := range qs {
		t += 7e-5
		qs[i] = workload.Query{ID: i, Arrival: t, Accesses: 800 + 5*i}
	}
	cond := testbed.Condition{
		Services: []testbed.ServiceSpec{
			{Kernel: workload.Redis(), Timeout: testbed.NeverBoost, Schedule: qs},
			{Kernel: workload.KNN(), Timeout: testbed.NeverBoost, Schedule: qs},
		},
		Seed:            5,
		CalibrationSeed: 5,
	}.Defaults()
	if _, err := testbed.Run(cond); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := testbed.Run(cond); err != nil {
			b.Fatal(err)
		}
	}
}

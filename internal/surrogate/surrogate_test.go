package surrogate

import (
	"math"
	"runtime"
	"testing"
	"time"

	"stac/internal/cat"
	"stac/internal/mrc"
	"stac/internal/obs"
	"stac/internal/testbed"
	"stac/internal/workload"
)

func exactModel(t *testing.T, k workload.Kernel, seed uint64) *Model {
	t.Helper()
	proc := testbed.XeonE5_2683()
	curve, err := mrc.KernelCurve(k, testbed.LineSize, 40000, 13)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(proc, k, curve, ModelConfig{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// The differential gate for the analytical model: solo predictions must
// agree with the packed simulator's calibration at every integer way
// count — the model is anchored there by construction, so any drift
// means the anchor plumbing broke.
func TestModelMatchesSoloCalibration(t *testing.T) {
	proc := testbed.XeonE5_2683()
	for _, k := range workload.All() {
		m := exactModel(t, k, 7)
		for _, ways := range []int{1, 2, 3, 5, 8, 13, 20} {
			mask := cat.Setting{Offset: 0, Length: ways}.Mask()
			cal, err := testbed.CalibrateServiceTime(proc, k, mask, 1<<32, 8)
			if err != nil {
				t.Fatal(err)
			}
			pred := m.ServiceTime(ways, 0)
			if rel := math.Abs(pred-cal) / cal; rel > 1e-9 {
				t.Errorf("%s at %d ways: model %v vs calibration %v (%.2g relative)",
					k.Name, ways, pred, cal, rel)
			}
		}
	}
}

func TestModelPhysics(t *testing.T) {
	m := exactModel(t, workload.BFS(), 7)
	// Pressure inflates service time, monotonically.
	prev := 0.0
	for _, pr := range []float64{0, 0.5, 1, 2} {
		st := m.ServiceTime(4, pr)
		if st <= prev {
			t.Fatalf("service time not increasing in pressure: %v at pressure %v", st, pr)
		}
		prev = st
	}
	// Modelled cycles decrease (weakly) with capacity.
	for lines := 512; lines < 10240; lines += 512 {
		if m.CyclesAtLines(lines+512, 0) > m.CyclesAtLines(lines, 0)+1e-9 {
			t.Fatalf("cycles increase with capacity at %d lines", lines)
		}
	}
	// Fractional allocations interpolate between the integer anchors.
	lo, hi := m.ServiceTime(4, 0), m.ServiceTime(5, 0)
	mid := m.serviceTimeAtLines(4*m.linesPerWay+m.linesPerWay/2, 0)
	if mid < math.Min(lo, hi)-1e-12 || mid > math.Max(lo, hi)+1e-12 {
		t.Fatalf("fractional service time %v outside [%v, %v]", mid, hi, lo)
	}
	if m.ServiceCV() <= 0 || m.ServiceCV() > 2 {
		t.Fatalf("implausible service CV %v", m.ServiceCV())
	}
	// Memory traffic: cache-resident KNN presses far less than streaming.
	knn := exactModel(t, workload.KNN(), 7)
	sps := exactModel(t, workload.Spstream(), 7)
	traffic := func(m *Model) float64 { return m.memTrafficAtLines(float64(8*m.linesPerWay), 0, 0.9, 2) }
	if traffic(knn) > traffic(sps)/10 {
		t.Fatalf("knn traffic %v should be far below spstream %v", traffic(knn), traffic(sps))
	}
}

func redisSocialSearcher(t *testing.T, cfg Config) *Searcher {
	t.Helper()
	if cfg.KernelA.Name == "" {
		cfg.KernelA, cfg.KernelB = workload.Redis(), workload.Social()
		cfg.LoadA, cfg.LoadB = 0.9, 0.9
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestEnumeratePlansExhaustive(t *testing.T) {
	s := redisSocialSearcher(t, Config{})
	plans := s.EnumeratePlans()
	// 20 ways: 171 layouts with a shared span × 25 timeout pairs, plus 19
	// fully-private layouts = 4294 plans. The acceptance floor is 1000.
	if len(plans) != 4294 {
		t.Fatalf("expected 4294 plans on the 20-way platform, got %d", len(plans))
	}
	seen := map[Plan]bool{}
	for _, p := range plans {
		if err := s.validatePlan(p); err != nil {
			t.Fatalf("enumerated invalid plan %v: %v", p, err)
		}
		if seen[p] {
			t.Fatalf("duplicate plan %v", p)
		}
		seen[p] = true
		if p.Shared == 0 && !math.IsInf(p.TimeoutA, 1) {
			t.Fatalf("fully-private plan %v should not sweep timeouts", p)
		}
	}
}

func TestSearchDeterministic(t *testing.T) {
	a := redisSocialSearcher(t, Config{})
	b := redisSocialSearcher(t, Config{})
	plans := a.EnumeratePlans()[:400]
	ra, err := a.Search(plans)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Search(b.EnumeratePlans()[:400])
	if err != nil {
		t.Fatal(err)
	}
	for i := range ra {
		if ra[i].Plan != rb[i].Plan || ra[i].Score != rb[i].Score {
			t.Fatalf("rank %d differs across identical searchers: %+v vs %+v", i, ra[i], rb[i])
		}
	}
}

// The acceptance gate for the whole fast path: on the Figure-8
// collocation (redis + social, both at 0.9 load), rank all 25 timeout
// plans of the canonical layout with the surrogate, measure all of them
// exhaustively on the packed simulator (averaged over seeds), and
// require that the surrogate's top picks include a plan statistically
// indistinguishable from the true measured best. The 104 testbed runs
// are independent and individually seeded, so they run as one batch.
func TestFigure8TopKContainsBest(t *testing.T) {
	if testing.Short() {
		t.Skip("104 testbed runs")
	}
	s := redisSocialSearcher(t, Config{})
	grid := []float64{0, 0.5, 1.5, 3, 4.5}
	seeds := []uint64{11, 22, 33, 44}

	var plans []Plan
	for _, ta := range grid {
		for _, tb := range grid {
			plans = append(plans, Plan{PrivA: 2, PrivB: 2, Shared: 2, TimeoutA: ta, TimeoutB: tb})
		}
	}
	ranked, err := s.Search(plans)
	if err != nil {
		t.Fatal(err)
	}

	// Run j of plan i (the baseline first) sits at (i*len(seeds) + j).
	var conds []testbed.Condition
	for _, p := range append([]Plan{s.basePlan}, plans...) {
		for _, seed := range seeds {
			cond := s.Condition(p, 250)
			cond.Seed = seed
			conds = append(conds, cond)
		}
	}
	runs, err := testbed.RunBatch(0, conds)
	if err != nil {
		t.Fatal(err)
	}
	p95 := func(i, j int) (float64, float64) {
		r := runs[i*len(seeds)+j]
		return r.Services[0].P95Response(), r.Services[1].P95Response()
	}
	meas := map[Plan]float64{}
	best := 0.0
	for i, p := range plans {
		var score float64
		for j := range seeds {
			baseA, baseB := p95(0, j)
			a, b := p95(i+1, j)
			score += math.Sqrt(baseA / a * baseB / b)
		}
		meas[p] = score / float64(len(seeds))
		if meas[p] > best {
			best = meas[p]
		}
	}
	if best <= 1.05 {
		t.Fatalf("short-term allocation shows no measured benefit (best %.3f) — scenario degenerate", best)
	}
	// The surrogate's top 8 (of 25) must contain a plan within 3 % of the
	// measured optimum. (The measured top plans differ by less than the
	// seed-to-seed noise, so demanding the argmax itself would test the
	// noise, not the model.)
	const k = 8
	bestInTop := 0.0
	for _, ev := range ranked[:k] {
		if meas[ev.Plan] > bestInTop {
			bestInTop = meas[ev.Plan]
		}
	}
	t.Logf("measured best %.3f; best within surrogate top-%d %.3f", best, k, bestInTop)
	if bestInTop < 0.97*best {
		t.Fatalf("surrogate top-%d best measured score %.3f below 97%% of true best %.3f",
			k, bestInTop, best)
	}

	// And the ranking as a whole must carry signal: Spearman rho > 0.3.
	predRank := map[Plan]int{}
	for i, ev := range ranked {
		predRank[ev.Plan] = i
	}
	measOrder := append([]Plan(nil), plans...)
	for i := 0; i < len(measOrder); i++ {
		for j := i + 1; j < len(measOrder); j++ {
			if meas[measOrder[j]] > meas[measOrder[i]] {
				measOrder[i], measOrder[j] = measOrder[j], measOrder[i]
			}
		}
	}
	var d2 float64
	for i, p := range measOrder {
		d := float64(i - predRank[p])
		d2 += d * d
	}
	n := float64(len(measOrder))
	rho := 1 - 6*d2/(n*(n*n-1))
	t.Logf("spearman rho = %.3f", rho)
	if rho < 0.3 {
		t.Fatalf("surrogate ranking uncorrelated with measurement: rho=%.3f", rho)
	}
}

// Validate must re-measure the surrogate's picks on the real testbed and
// report honest speedups; on the free-layout search the top plans beat
// the no-sharing baseline by a wide measured margin.
func TestValidateTopPlans(t *testing.T) {
	s := redisSocialSearcher(t, Config{})
	ranked, err := s.Search(s.EnumeratePlans())
	if err != nil {
		t.Fatal(err)
	}
	if s.SimRuns() == 0 {
		t.Fatal("no simulations ran")
	}
	vals, err := s.Validate(ranked, 3, 150)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 3 {
		t.Fatalf("expected 3 validated plans, got %d", len(vals))
	}
	for i, v := range vals {
		if v.Plan != ranked[i].Plan {
			t.Fatalf("validation out of rank order at %d", i)
		}
		if v.MeasuredScore < 2 {
			t.Errorf("top plan %v measured score %.3f — expected a large win over the starved baseline",
				v.Plan, v.MeasuredScore)
		}
		for j := 0; j < 2; j++ {
			if v.MeasuredP95[j] <= 0 {
				t.Fatalf("degenerate measured p95 for %v", v.Plan)
			}
		}
	}
}

// TestValidateMatchesSerialRuns pins the fanned-out validation to what
// running the baseline and each plan on the testbed one after another
// measures.
func TestValidateMatchesSerialRuns(t *testing.T) {
	s := redisSocialSearcher(t, Config{})
	plans := []Plan{
		{PrivA: 4, PrivB: 8, Shared: 8, TimeoutA: 0, TimeoutB: 1.5},
		{PrivA: 9, PrivB: 9, Shared: 2, TimeoutA: 0.5, TimeoutB: 0.5},
	}
	var ranked []Evaluation
	for _, p := range plans {
		ev, err := s.Evaluate(p)
		if err != nil {
			t.Fatal(err)
		}
		ranked = append(ranked, ev)
	}
	const queries = 60
	vals, err := s.Validate(ranked, len(ranked), queries)
	if err != nil {
		t.Fatal(err)
	}
	p95 := func(p Plan) [2]float64 {
		run, err := testbed.Run(s.Condition(p, queries))
		if err != nil {
			t.Fatal(err)
		}
		return [2]float64{run.Services[0].P95Response(), run.Services[1].P95Response()}
	}
	base := p95(s.basePlan)
	for i, v := range vals {
		want := p95(plans[i])
		if v.MeasuredP95 != want {
			t.Errorf("plan %v: measured p95 %v, serial run %v", plans[i], v.MeasuredP95, want)
		}
		for j := 0; j < 2; j++ {
			if got := v.MeasuredSpeedup[j]; got != base[j]/want[j] {
				t.Errorf("plan %v service %d: speedup %v, serial %v", plans[i], j, got, base[j]/want[j])
			}
		}
	}
}

// TestSimulateAcrossGOMAXPROCSChanges is a regression test: the sweep
// used to size its simulators from one GOMAXPROCS read and fan out from
// a second, so a rise in between handed a worker an index with no
// simulator and crashed the process. GOMAXPROCS rises between fills,
// which must grow the simulator list, and then flips between 2 and 4
// from another goroutine during fills; every result must match the
// one-worker run.
func TestSimulateAcrossGOMAXPROCSChanges(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := redisSocialSearcher(t, Config{})
	var keys [][2]simKey
	for _, p := range []Plan{
		{PrivA: 4, PrivB: 8, Shared: 8, TimeoutA: 0, TimeoutB: 1.5},
		{PrivA: 9, PrivB: 9, Shared: 2, TimeoutA: 0.5, TimeoutB: 0.5},
	} {
		pc := s.planConfigs(p, [2]float64{})
		// 40-query cells keep the 10 000 fills below cheap.
		pc[0].Queries, pc[1].Queries = 40, 40
		keys = append(keys, [2]simKey{keyOf(pc[0]), keyOf(pc[1])})
	}
	run := func() [4]simOut {
		s.memo = map[simKey]simOut{}
		if err := s.fill(keys); err != nil {
			t.Fatal(err)
		}
		return [4]simOut{s.memo[keys[0][0]], s.memo[keys[0][1]], s.memo[keys[1][0]], s.memo[keys[1][1]]}
	}
	s.sims = nil
	want := run()
	runtime.GOMAXPROCS(4)
	if got := run(); got != want {
		t.Fatalf("after GOMAXPROCS 1 -> 4: %+v, want %+v", got, want)
	}
	if len(s.sims) != 4 {
		t.Fatalf("%d simulators after a four-cell fill at GOMAXPROCS 4, want 4", len(s.sims))
	}

	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for procs := 2; ; procs = 6 - procs {
			select {
			case <-stop:
				return
			default:
				// Each change stops the world; the pause between them
				// keeps the loop below running.
				runtime.GOMAXPROCS(procs)
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()
	defer func() { close(stop); <-stopped }()
	for i := 0; i < 10000; i++ {
		s.sims = nil
		if got := run(); got != want {
			t.Fatalf("while GOMAXPROCS changes: %+v, want %+v", got, want)
		}
	}
}

// TestValidateRejectsNegativeK is a regression test: a negative k used
// to run the baseline on the testbed and then panic sizing the result.
func TestValidateRejectsNegativeK(t *testing.T) {
	s := redisSocialSearcher(t, Config{})
	ev, err := s.Evaluate(Plan{PrivA: 4, PrivB: 8, Shared: 8, TimeoutA: 0, TimeoutB: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	runs := obs.C("testbed/runs")
	before := runs.Load()
	if _, err := s.Validate([]Evaluation{ev}, -1, 60); err == nil {
		t.Fatal("Validate accepted k = -1")
	}
	if n := runs.Load() - before; n != 0 {
		t.Errorf("Validate with k = -1 ran %d testbed runs, want 0", n)
	}
}

func TestSearcherRejectsBadConfig(t *testing.T) {
	// At load 1e-6 a service's arrival rate rounds to zero on the memo
	// grid's 0.1/s step, and every score built on its cells is NaN.
	for _, loads := range [][2]float64{{1.2, 0.5}, {0.5, math.NaN()}, {1e-6, 0.5}, {0.5, 1e-6}} {
		if _, err := New(Config{KernelA: workload.Redis(), KernelB: workload.BFS(), LoadA: loads[0], LoadB: loads[1]}); err == nil {
			t.Fatalf("loads %v accepted", loads)
		}
	}
	// An empty trace would rank plans on curves that never miss.
	if _, err := New(Config{KernelA: workload.Redis(), KernelB: workload.Social(), Accesses: -1}); err == nil {
		t.Fatal("Accesses -1 accepted")
	}
	s := redisSocialSearcher(t, Config{})
	for _, p := range []Plan{
		{PrivA: 0, PrivB: 2, Shared: 2},
		{PrivA: 2, PrivB: 2, Shared: -1},
		{PrivA: 10, PrivB: 10, Shared: 5},
		{PrivA: 2, PrivB: 2, Shared: 2, TimeoutA: -1},
		{PrivA: 2, PrivB: 2, Shared: 2, TimeoutA: math.NaN()},
		{PrivA: 2, PrivB: 2, Shared: 2, TimeoutB: math.NaN()},
	} {
		if _, err := s.Evaluate(p); err == nil {
			t.Errorf("invalid plan %+v accepted", p)
		}
	}
}

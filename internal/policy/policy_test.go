package policy

import (
	"math"
	"testing"

	"stac/internal/core"
	"stac/internal/deepforest"
	"stac/internal/profile"
	"stac/internal/stats"
	"stac/internal/workload"
)

func ctxRedisBFS() PairContext {
	return PairContext{
		KernelA:           workload.Redis(),
		KernelB:           workload.BFS(),
		LoadA:             0.9,
		LoadB:             0.9,
		QueriesPerService: 120,
		Seed:              71,
	}.Defaults()
}

func TestTimeoutGrid(t *testing.T) {
	g := TimeoutGrid()
	if len(g) != 5 {
		t.Fatalf("grid has %d settings, want 5 (paper: 5 per workload)", len(g))
	}
	for i := 1; i < len(g); i++ {
		if g[i] <= g[i-1] {
			t.Fatal("grid not increasing")
		}
	}
	if g[0] != 0 {
		t.Fatal("grid must include always-boost (0)")
	}
}

func TestNoSharingNeverBoosts(t *testing.T) {
	d := NoSharing()
	if !math.IsInf(d.TimeoutA, 1) || !math.IsInf(d.TimeoutB, 1) {
		t.Fatal("no-sharing decision must never boost")
	}
}

func TestStaticPicksAConfiguration(t *testing.T) {
	if testing.Short() {
		t.Skip("testbed probes are slow")
	}
	d, err := Static(ctxRedisBFS())
	if err != nil {
		t.Fatal(err)
	}
	share := d.TimeoutA == 0 && d.TimeoutB == 0
	priv := math.IsInf(d.TimeoutA, 1) && math.IsInf(d.TimeoutB, 1)
	if !share && !priv {
		t.Fatalf("static must pick full-share or private-only, got %+v", d)
	}
}

func TestDCatAssignsSharedCacheToOneWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("testbed probes are slow")
	}
	d, err := DCat(ctxRedisBFS())
	if err != nil {
		t.Fatal(err)
	}
	aGets := d.TimeoutA == 0 && math.IsInf(d.TimeoutB, 1)
	bGets := d.TimeoutB == 0 && math.IsInf(d.TimeoutA, 1)
	if !aGets && !bGets {
		t.Fatalf("dCat must give shared cache to exactly one workload, got %+v", d)
	}
}

func TestDynaSprintReturnsGridTimeouts(t *testing.T) {
	if testing.Short() {
		t.Skip("testbed probes are slow")
	}
	ctx := ctxRedisBFS()
	ctx.QueriesPerService = 90
	d, err := DynaSprint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	inGrid := func(v float64) bool {
		for _, g := range TimeoutGrid() {
			if v == g {
				return true
			}
		}
		return false
	}
	if !inGrid(d.TimeoutA) || !inGrid(d.TimeoutB) {
		t.Fatalf("dynaSprint returned off-grid timeouts: %+v", d)
	}
}

func TestSpeedupsAgainstBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("testbed runs are slow")
	}
	ctx := ctxRedisBFS()
	// Always-boost should speed up both cache-hungry services vs private-only.
	sp, err := Speedups(ctx, Decision{Name: "always", TimeoutA: 0, TimeoutB: 0})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("always-boost speedups: redis=%.2fx bfs=%.2fx", sp[0], sp[1])
	for i, s := range sp {
		if s <= 0 {
			t.Fatalf("service %d speedup %v not positive", i, s)
		}
	}
	if sp[0] < 1 && sp[1] < 1 {
		t.Fatal("always-boost slowed down both cache-sensitive services")
	}
}

func TestModelDrivenSearch(t *testing.T) {
	if testing.Short() {
		t.Skip("full model-driven search is slow")
	}
	// Build a small library and predictor.
	opts := profile.CollectOptions{
		KernelA:           workload.Redis(),
		KernelB:           workload.BFS(),
		QueriesPerService: 60,
		Seed:              5,
	}
	pts := profile.UniformPoints(12, stats.NewRNG(6))
	ds, err := profile.Collect(opts, pts)
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.TrainDeepForestEA(ds, deepforest.FastConfig(core.MatrixSpec(ds.Schema)), stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewPredictor(model, ds, 2, 0)
	if err != nil {
		t.Fatal(err)
	}

	sa, err := ScenarioTemplate(ds, "redis", 0.9, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := ScenarioTemplate(ds, "bfs", 0.9, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	d, err := ModelDriven(p, sa, sb, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("model-driven decision: %+v", d)
	inGrid := func(v float64) bool {
		for _, g := range TimeoutGrid() {
			if v == g {
				return true
			}
		}
		return false
	}
	if !inGrid(d.TimeoutA) || !inGrid(d.TimeoutB) {
		t.Fatalf("decision off grid: %+v", d)
	}
}

func TestScenarioTemplateUnknownService(t *testing.T) {
	ds := profile.Dataset{Schema: profile.DefaultSchema()}
	if _, err := ScenarioTemplate(ds, "nosuch", 0.9, 0.9); err == nil {
		t.Fatal("unknown service accepted")
	}
}

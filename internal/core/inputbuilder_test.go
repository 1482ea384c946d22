package core

import (
	"sync"
	"testing"

	"stac/internal/profile"
)

// syntheticLibrary builds a small in-memory library without running the
// testbed: rows at known static conditions with distinctive matrices.
func syntheticLibrary(t *testing.T) profile.Dataset {
	t.Helper()
	mk := func(service string, load, timeout float64, fill float64, cond int) profile.Row {
		f := make([]float64, profile.NumFeatures)
		f[0] = load
		f[1] = timeout
		f[2] = 0.5
		f[3] = 2
		f[4], f[5], f[6], f[7] = 2, 2, 2, 1
		// Dynamic features.
		f[8], f[9], f[10] = 0.2, 0.5, 0.3
		for i := profile.MatrixOffset; i < len(f); i++ {
			f[i] = fill
		}
		return profile.Row{
			Features: f, EA: 0.5, RespMean: 1e-4, RespP95: 2e-4,
			ExpService: 5e-5, STMean: 6e-5, STCV: 0.4,
			Service: service, CondID: cond,
		}
	}
	return profile.Dataset{
		Schema: profile.DefaultSchema(),
		Rows: []profile.Row{
			mk("redis", 0.3, 1, 10, 0),
			mk("redis", 0.9, 1, 90, 1),
			mk("redis", 0.9, 5, 50, 2),
			mk("bfs", 0.9, 1, 500, 3),
		},
	}
}

func TestInputBuilderPrefersSameService(t *testing.T) {
	lib := syntheticLibrary(t)
	b, err := NewInputBuilder(lib)
	if err != nil {
		t.Fatal(err)
	}
	b.neighbours = 1
	s := Scenario{
		Static: profile.Static{
			Load: 0.9, Timeout: 1, PartnerLoad: 0.5, PartnerTimeout: 2, PrivateWays: 2,
			SharedWays: 2, BoostRatio: 2, SamplePeriodRel: 1,
		},
		Service: "redis", ExpService: 5e-5, ServiceCV: 0.4,
	}
	in, err := b.Build(s)
	if err != nil {
		t.Fatal(err)
	}
	// Nearest redis row at load 0.9, timeout 1 has matrix fill 90; the
	// bfs row (fill 500) must not be chosen despite matching statics.
	got := in[profile.MatrixOffset]
	if got != 90 {
		t.Fatalf("borrowed matrix fill %v, want 90 (nearest same-service row)", got)
	}
}

func TestInputBuilderWeightsByDistance(t *testing.T) {
	lib := syntheticLibrary(t)
	b, err := NewInputBuilder(lib)
	if err != nil {
		t.Fatal(err)
	}
	b.neighbours = 3
	s := Scenario{
		Static: profile.Static{
			Load: 0.9, Timeout: 1, PartnerLoad: 0.5, PartnerTimeout: 2, PrivateWays: 2,
			SharedWays: 2, BoostRatio: 2, SamplePeriodRel: 1,
		},
		Service: "redis", ExpService: 5e-5, ServiceCV: 0.4,
	}
	in, err := b.Build(s)
	if err != nil {
		t.Fatal(err)
	}
	// The exact-match row (fill 90) must dominate the weighted average of
	// the three redis rows (fills 10, 90, 50); a plain mean would give 50.
	got := in[profile.MatrixOffset]
	if got <= 55 || got > 90 {
		t.Fatalf("weighted matrix fill %v, want in (55, 90] (dominated by the exact match)", got)
	}
}

func TestInputBuilderFallsBackAcrossServices(t *testing.T) {
	lib := syntheticLibrary(t)
	b, err := NewInputBuilder(lib)
	if err != nil {
		t.Fatal(err)
	}
	s := Scenario{
		Static: profile.Static{
			Load: 0.9, Timeout: 1, PartnerLoad: 0.5, PartnerTimeout: 2, PrivateWays: 2,
			SharedWays: 2, BoostRatio: 2, SamplePeriodRel: 1,
		},
		Service: "social", ExpService: 5e-5, ServiceCV: 0.4,
	}
	if _, err := b.Build(s); err != nil {
		t.Fatalf("no-same-service scenario should fall back, got %v", err)
	}
}

func TestInputBuilderShape(t *testing.T) {
	lib := syntheticLibrary(t)
	b, err := NewInputBuilder(lib)
	if err != nil {
		t.Fatal(err)
	}
	s := ScenarioFromRow(lib.Rows[0])
	in, err := b.Build(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(in) != profile.NumFeatures {
		t.Fatalf("input has %d features, want %d", len(in), profile.NumFeatures)
	}
	// Static features copied from the scenario.
	if in[0] != lib.Rows[0].Features[0] || in[1] != lib.Rows[0].Features[1] {
		t.Fatal("static features not preserved")
	}
}

// TestInputBuilderBuildAllocs pins Build's allocation count on the
// serving path: the neighbours' matrices accumulate in the returned
// vector, with no second matrix-sized slice, and the neighbour
// candidates take one allocation, not one per growth step.
func TestInputBuilderBuildAllocs(t *testing.T) {
	lib := syntheticLibrary(t)
	b, err := NewInputBuilder(lib)
	if err != nil {
		t.Fatal(err)
	}
	s := ScenarioFromRow(lib.Rows[0])
	s.Load = 0.6
	const want = 8
	if got := testing.AllocsPerRun(100, func() { _, _ = b.Build(s) }); got > want {
		t.Errorf("Build allocates %v times per call, want at most %d", got, want)
	}
}

func TestBaseServiceCVPrefersUnboostedWindows(t *testing.T) {
	lib := syntheticLibrary(t)
	// Mark one row as unboosted with a distinct CV.
	lib.Rows[2].Features[profile.NumStatic+profile.DynBoostedFrac] = 0.0
	lib.Rows[2].STCV = 0.9
	b, err := NewInputBuilder(lib)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.BaseServiceCV("redis"); got != 0.9 {
		t.Fatalf("BaseServiceCV = %v, want 0.9 (the unboosted window)", got)
	}
	// A service with only boosted windows falls back to all rows.
	if got := b.BaseServiceCV("bfs"); got != 0.4 {
		t.Fatalf("BaseServiceCV fallback = %v, want 0.4", got)
	}
	if got := b.BaseServiceCV("nosuch"); got != 0 {
		t.Fatalf("unknown service CV = %v, want 0", got)
	}
}

func TestPredictWithEAConsistency(t *testing.T) {
	s := Scenario{
		Static: profile.Static{
			Load: 0.6, Timeout: 0, PartnerLoad: 0.5, PartnerTimeout: 2, PrivateWays: 2,
			SharedWays: 2, BoostRatio: 2, SamplePeriodRel: 1,
		},
		Service: "redis", ExpService: 1e-4, ServiceCV: 0.4,
	}
	// With timeout 0 every query is boosted: aggregate service time must
	// approach ExpService/(eaPolicy·R).
	eaPolicy, eaNever := 0.8, 0.5
	pred, err := PredictWithEA(s, eaPolicy, eaNever, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if pred.BoostedFrac != 1 {
		t.Fatalf("timeout 0 should boost everything, got %v", pred.BoostedFrac)
	}
	wantAgg := s.ExpService / (eaPolicy * s.BoostRatio)
	gotAgg := pred.MeanResponse - pred.QueueDelay
	if gotAgg < wantAgg*0.93 || gotAgg > wantAgg*1.07 {
		t.Fatalf("aggregate service time %v, want ~%v", gotAgg, wantAgg)
	}
}

func TestPredictWithEANeverBoost(t *testing.T) {
	s := Scenario{
		Static: profile.Static{
			Load: 0.6, Timeout: profile.TimeoutCap, PartnerLoad: 0.5, PartnerTimeout: 2,
			PrivateWays: 2, SharedWays: 2, BoostRatio: 2, SamplePeriodRel: 1,
		},
		Service: "redis", ExpService: 1e-4, ServiceCV: 0.4,
	}
	eaNever := 0.45
	pred, err := PredictWithEA(s, eaNever, eaNever, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if pred.BoostedFrac != 0 {
		t.Fatalf("capped timeout should never boost, got %v", pred.BoostedFrac)
	}
	wantAgg := s.ExpService / (eaNever * s.BoostRatio)
	gotAgg := pred.MeanResponse - pred.QueueDelay
	if gotAgg < wantAgg*0.93 || gotAgg > wantAgg*1.07 {
		t.Fatalf("never-boost aggregate %v, want ~%v", gotAgg, wantAgg)
	}
}

// TestPooledSimulatorsConcurrent runs Stage 3 from several goroutines
// at once through the shared simulator pool; every result must equal
// its sequential twin.
func TestPooledSimulatorsConcurrent(t *testing.T) {
	base := Scenario{
		Static: profile.Static{
			PartnerLoad: 0.5, PartnerTimeout: 2, PrivateWays: 2, SharedWays: 2,
			BoostRatio: 2, SamplePeriodRel: 1,
		},
		Service: "redis", ExpService: 1e-4, ServiceCV: 0.4,
	}
	type out struct{ ea, queue Prediction }
	var scenarios []Scenario
	for _, load := range []float64{0.3, 0.6, 0.9} {
		for _, timeout := range []float64{0, 1.5, profile.TimeoutCap} {
			s := base
			s.Load, s.Timeout = load, timeout
			scenarios = append(scenarios, s)
		}
	}
	predict := func(s Scenario) (out, error) {
		ea, err := PredictWithEA(s, 0.8, 0.5, 1500)
		if err != nil {
			return out{}, err
		}
		q, err := QueueOnlyPredict(s)
		return out{ea, q}, err
	}
	want := make([]out, len(scenarios))
	for i, s := range scenarios {
		o, err := predict(s)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = o
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range scenarios {
				i := (k + w) % len(scenarios)
				got, err := predict(scenarios[i])
				if err != nil {
					t.Error(err)
					return
				}
				if got != want[i] {
					t.Errorf("scenario %d: concurrent %+v, sequential %+v", i, got, want[i])
				}
			}
		}(w)
	}
	wg.Wait()
}

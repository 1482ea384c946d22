package core

import (
	"testing"

	"stac/internal/deepforest"
	"stac/internal/profile"
	"stac/internal/stats"
	"stac/internal/workload"
)

// buildDataset collects a small profiling dataset for Redis×BFS.
func buildDataset(t *testing.T, nPoints int, seed uint64) profile.Dataset {
	t.Helper()
	opts := profile.CollectOptions{
		KernelA:           workload.Redis(),
		KernelB:           workload.BFS(),
		QueriesPerService: 80,
		Seed:              seed,
	}
	rng := stats.NewRNG(seed)
	pts := profile.UniformPoints(nPoints, rng)
	ds, err := profile.Collect(opts, pts)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func trainPredictor(t *testing.T, train profile.Dataset, seed uint64) *Predictor {
	t.Helper()
	cfg := deepforest.FastConfig(MatrixSpec(train.Schema))
	model, err := TrainDeepForestEA(train, cfg, stats.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPredictor(model, train, 0)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPipelineEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end pipeline test is slow")
	}
	ds := buildDataset(t, 24, 42)
	train, test := ds.SplitByCondition(0.5, 7)
	test = test.AggregateByCondition()
	p := trainPredictor(t, train, 9)

	errs, err := EvaluatePredictor(p, test, 1)
	if err != nil {
		t.Fatal(err)
	}
	med := stats.Median(errs)
	t.Logf("full pipeline: median APE = %.1f%% (n=%d)", 100*med, len(errs))
	// The paper reports 11 % median error with far more profiling; with a
	// small dataset we accept anything clearly informative.
	if med > 0.40 {
		t.Fatalf("median APE %.1f%% too high — pipeline is not predictive", 100*med)
	}

	// The pipeline must beat naive linear regression (paper: 4.1× better).
	lin, err := TrainLinearResponse(train)
	if err != nil {
		t.Fatal(err)
	}
	linErrs, err := EvaluateResponseModel(lin, train, test, 1)
	if err != nil {
		t.Fatal(err)
	}
	linMed := stats.Median(linErrs)
	t.Logf("linear regression: median APE = %.1f%%", 100*linMed)
	if med >= linMed {
		t.Fatalf("pipeline (%.1f%%) not better than linear regression (%.1f%%)",
			100*med, 100*linMed)
	}
}

func TestPredictResponseDirectionality(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	ds := buildDataset(t, 16, 11)
	p := trainPredictor(t, ds, 13)

	base := Scenario{
		Static: profile.Static{
			Load: 0.9, Timeout: 1, PartnerLoad: 0.5, PartnerTimeout: 3, PrivateWays: 2,
			SharedWays: 2, BoostRatio: 2, SamplePeriodRel: 1,
		},
		Service: "redis", ExpService: ds.Rows[0].ExpService, ServiceCV: 0.35,
	}
	hi, err := p.PredictResponse(base)
	if err != nil {
		t.Fatal(err)
	}
	lower := base
	lower.Load = 0.4
	lo, err := p.PredictResponse(lower)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("predicted mean response: load 0.9 -> %.3g, load 0.4 -> %.3g",
		hi.MeanResponse, lo.MeanResponse)
	if lo.MeanResponse >= hi.MeanResponse {
		t.Fatal("prediction not sensitive to load")
	}
	if hi.EA <= 0 || hi.P95Response < hi.MeanResponse {
		t.Fatalf("implausible prediction: %+v", hi)
	}
}

func TestScenarioRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	ds := buildDataset(t, 4, 17)
	r := ds.Rows[0]
	s := ScenarioFromRow(r)
	if s.Service != r.Service {
		t.Fatal("service lost")
	}
	if s.Load != r.Features[0] || s.PartnerLoad != r.Features[2] {
		t.Fatal("loads lost")
	}
	if s.ExpService != r.ExpService {
		t.Fatal("calibration lost")
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("reconstructed scenario invalid: %v", err)
	}
}

func TestScenarioValidate(t *testing.T) {
	good := Scenario{
		Static: profile.Static{
			Load: 0.5, Timeout: 1, BoostRatio: 2,
		},
		Service: "redis", ExpService: 1e-4,
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Load = 0
	if bad.Validate() == nil {
		t.Error("zero load accepted")
	}
	bad = good
	bad.ExpService = 0
	if bad.Validate() == nil {
		t.Error("zero service time accepted")
	}
	bad = good
	bad.Timeout = -1
	if bad.Validate() == nil {
		t.Error("negative timeout accepted")
	}
	bad = good
	bad.BoostRatio = 0
	if bad.Validate() == nil {
		t.Error("zero boost ratio accepted")
	}
}

func TestNewPredictorErrors(t *testing.T) {
	if _, err := NewPredictor(nil, profile.Dataset{}, 0); err == nil {
		t.Error("nil model accepted")
	}
	ds := profile.Dataset{Schema: profile.DefaultSchema(), Rows: []profile.Row{{}}}
	if _, err := NewPredictor(stubModel{}, profile.Dataset{Schema: ds.Schema}, 0); err == nil {
		t.Error("empty library accepted")
	}
}

type stubModel struct{}

func (stubModel) Predict([]float64) float64 { return 0.5 }

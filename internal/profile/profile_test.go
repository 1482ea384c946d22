package profile

import (
	"math"
	"testing"

	"stac/internal/counters"
	"stac/internal/stats"
	"stac/internal/testbed"
	"stac/internal/workload"
)

func TestDefaultSchemaShape(t *testing.T) {
	if err := DefaultSchema().Validate(); err != nil {
		t.Fatal(err)
	}
	// 580 matrix features (the paper's count) plus condition features.
	if got := NumFeatures - MatrixOffset; got != 580 {
		t.Fatalf("matrix features = %d, want 580", got)
	}
	if NumFeatures != 591 {
		t.Fatalf("NumFeatures = %d, want 591", NumFeatures)
	}
}

func TestSchemaValidateRejectsBadOrder(t *testing.T) {
	s := DefaultSchema()
	s.CounterOrder = s.CounterOrder[:10]
	if err := s.Validate(); err == nil {
		t.Fatal("short counter order accepted")
	}
	s = DefaultSchema()
	s.CounterOrder[0] = s.CounterOrder[1]
	if err := s.Validate(); err == nil {
		t.Fatal("non-permutation accepted")
	}
}

func collectSmall(t *testing.T) Dataset {
	t.Helper()
	opts := CollectOptions{
		KernelA:           workload.Redis(),
		KernelB:           workload.BFS(),
		QueriesPerService: 60,
		Seed:              42,
	}
	pts := []Point{
		{LoadA: 0.8, LoadB: 0.8, TimeoutA: 1, TimeoutB: 1},
		{LoadA: 0.5, LoadB: 0.9, TimeoutA: 0, TimeoutB: 4},
	}
	ds, err := Collect(opts, pts)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestCollectProducesRows(t *testing.T) {
	ds := collectSmall(t)
	// 60 queries / 20 per row = 3 rows per service per point; 2 services,
	// 2 points => 12 rows.
	if ds.Len() != 12 {
		t.Fatalf("dataset has %d rows, want 12", ds.Len())
	}
	for i, r := range ds.Rows {
		if len(r.Features) != NumFeatures {
			t.Fatalf("row %d has %d features, want %d", i, len(r.Features), NumFeatures)
		}
		if r.EA <= 0 || r.EA > 2 {
			t.Errorf("row %d EA = %v outside plausible (0,2]", i, r.EA)
		}
		if r.RespMean <= 0 || r.RespP95 < r.RespMean {
			t.Errorf("row %d responses implausible: mean=%v p95=%v", i, r.RespMean, r.RespP95)
		}
		for j, f := range r.Features {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				t.Fatalf("row %d feature %d is %v", i, j, f)
			}
		}
	}
	names := map[string]int{}
	for _, r := range ds.Rows {
		names[r.Service]++
	}
	if names["redis"] != 6 || names["bfs"] != 6 {
		t.Fatalf("per-service row counts %v, want 6 each", names)
	}
}

func TestBuildRowsStaticFeatures(t *testing.T) {
	cond := testbed.Pair(workload.Redis(), workload.BFS(), 0.7, 0.6, 1.5, testbed.NeverBoost, 1)
	cond.QueriesPerService = 40
	run, err := testbed.Run(cond)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := BuildRows(DefaultSchema(), run, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(rows))
	}
	f := rows[0].Features
	if f[0] != 0.7 {
		t.Errorf("load feature = %v, want 0.7", f[0])
	}
	if f[1] != 1.5 {
		t.Errorf("timeout feature = %v, want 1.5", f[1])
	}
	if f[2] != 0.6 {
		t.Errorf("partner load = %v, want 0.6", f[2])
	}
	if f[3] != TimeoutCap {
		t.Errorf("partner timeout = %v, want capped %v", f[3], TimeoutCap)
	}
	if f[4] != 2 || f[5] != 2 {
		t.Errorf("ways features = %v,%v want 2,2", f[4], f[5])
	}
}

func TestBuildRowsErrors(t *testing.T) {
	cond := testbed.Pair(workload.Redis(), workload.BFS(), 0.7, 0.6, 1, 1, 1)
	cond.QueriesPerService = 25
	run, err := testbed.Run(cond)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildRows(DefaultSchema(), run, 5); err == nil {
		t.Error("out-of-range service accepted")
	}
	bad := DefaultSchema()
	bad.CounterOrder = bad.CounterOrder[:3]
	if _, err := BuildRows(bad, run, 0); err == nil {
		t.Error("invalid schema accepted")
	}
}

func TestTruncateAndFilter(t *testing.T) {
	ds := collectSmall(t)
	tr := ds.Truncate(5)
	if tr.Len() != 5 {
		t.Fatalf("truncate to 5 gave %d", tr.Len())
	}
	if ds.Truncate(1000).Len() != ds.Len() {
		t.Fatal("over-truncate changed length")
	}
	redis := ds.FilterService("redis")
	for _, r := range redis.Rows {
		if r.Service != "redis" {
			t.Fatal("filter leaked other services")
		}
	}
}

func TestAppendSchemaMismatch(t *testing.T) {
	a := Dataset{Schema: DefaultSchema()}
	shuffled := Schema{CounterOrder: counters.ShuffledOrder(1)}
	b := Dataset{Schema: shuffled, Rows: []Row{{}}}
	if err := a.Append(b); err == nil {
		t.Fatal("shuffled counter order appended to a spatial one")
	}
	if err := a.Append(Dataset{Schema: shuffled}); err != nil {
		t.Fatal("empty append should succeed")
	}
	if err := a.Append(Dataset{Schema: DefaultSchema(), Rows: []Row{{}}}); err != nil || a.Len() != 1 {
		t.Fatalf("append of the same counter order: %v, %d rows", err, a.Len())
	}
}

func TestUniformPointsInBounds(t *testing.T) {
	rng := stats.NewRNG(5)
	for _, p := range UniformPoints(200, rng) {
		for _, l := range []float64{p.LoadA, p.LoadB} {
			if l < MinLoad || l > MaxLoad {
				t.Fatalf("load %v out of bounds", l)
			}
		}
		for _, to := range []float64{p.TimeoutA, p.TimeoutB} {
			if to < MinTimeout || to > MaxTimeout {
				t.Fatalf("timeout %v out of bounds", to)
			}
		}
	}
}

func TestStratifiedPointsCountAndBounds(t *testing.T) {
	rng := stats.NewRNG(11)
	evals := 0
	eval := func(p Point) float64 {
		evals++
		// Synthetic outcome: EA depends on timeout A.
		return 1 / (1 + p.TimeoutA)
	}
	pts := StratifiedPoints(40, 10, 4, eval, rng, 1)
	if len(pts) != 40 {
		t.Fatalf("got %d points, want 40", len(pts))
	}
	if evals != 10 {
		t.Fatalf("eval called %d times, want 10 (seeds only)", evals)
	}
	for _, p := range pts {
		q := p.clamped()
		if q != p {
			t.Fatalf("point %+v not clamped to bounds", p)
		}
	}
}

func TestStratifiedCoversOutcomeSpaceBetterThanUniformTail(t *testing.T) {
	// With a strongly bimodal outcome, stratified samples should place
	// points near both regimes' settings. We check the generated points
	// include both low and high TimeoutA regions.
	rng := stats.NewRNG(13)
	eval := func(p Point) float64 {
		if p.TimeoutA < 3 {
			return 0.9
		}
		return 0.2
	}
	pts := StratifiedPoints(60, 16, 2, eval, rng, 1)
	lo, hi := 0, 0
	for _, p := range pts {
		if p.TimeoutA < 3 {
			lo++
		} else {
			hi++
		}
	}
	if lo == 0 || hi == 0 {
		t.Fatalf("stratified sampling missed a regime: lo=%d hi=%d", lo, hi)
	}
}

func TestCounterMatrixEmbedding(t *testing.T) {
	// The counter matrix must be laid out row-major by counter: feature
	// index MatrixOffset + c*Q + q equals query q's counter order[c].
	cond := testbed.Pair(workload.Redis(), workload.BFS(), 0.8, 0.8, 1, 1, 3)
	cond.QueriesPerService = 20
	run, err := testbed.Run(cond)
	if err != nil {
		t.Fatal(err)
	}
	schema := DefaultSchema()
	rows, err := BuildRows(schema, run, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("want 1 row, got %d", len(rows))
	}
	q0 := run.Services[0].Queries[0]
	for c := 0; c < counters.NumCounters; c++ {
		want := q0.Counters[schema.CounterOrder[c]]
		got := rows[0].Features[MatrixOffset+c*QueriesPerRow]
		if got != want {
			t.Fatalf("matrix[%d][0] = %v, want %v", c, got, want)
		}
	}
}

package queueing

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"stac/internal/stats"
)

func TestSimulateMatchesMM1(t *testing.T) {
	lambda, mu := 0.7, 1.0
	cfg := Config{
		Servers: 1,
		Arrival: stats.Exponential{Rate: lambda},
		Service: stats.Exponential{Rate: mu},
		Timeout: math.Inf(1),
		// BoostRate must be set even when unused.
		BoostRate: 1,
		Queries:   200000,
		Warmup:    2000,
		Seed:      1,
	}
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := MM1Response(lambda, mu)
	if err != nil {
		t.Fatal(err)
	}
	got := res.MeanResponse()
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("M/M/1 mean response %v, analytic %v", got, want)
	}
}

func TestSimulateMatchesMMc(t *testing.T) {
	lambda, mu, c := 1.6, 1.0, 2
	cfg := Config{
		Servers:   c,
		Arrival:   stats.Exponential{Rate: lambda},
		Service:   stats.Exponential{Rate: mu},
		Timeout:   math.Inf(1),
		BoostRate: 1,
		Queries:   200000,
		Warmup:    2000,
		Seed:      2,
	}
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wait, err := MMcWait(lambda, mu, c)
	if err != nil {
		t.Fatal(err)
	}
	want := wait + 1/mu
	got := res.MeanResponse()
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("M/M/2 mean response %v, analytic %v", got, want)
	}
}

func TestBoostReducesResponseTime(t *testing.T) {
	base := Config{
		Servers:   2,
		Arrival:   stats.Exponential{Rate: 1.7},
		Service:   stats.LognormalFromMeanCV(1, 0.5),
		BoostRate: 1.8,
		Queries:   50000,
		Warmup:    500,
		Seed:      3,
	}
	never := base
	never.Timeout = math.Inf(1)
	rNever, err := Simulate(never)
	if err != nil {
		t.Fatal(err)
	}
	always := base
	always.Timeout = 0
	rAlways, err := Simulate(always)
	if err != nil {
		t.Fatal(err)
	}
	if rAlways.MeanResponse() >= rNever.MeanResponse() {
		t.Fatalf("boost did not help: %v >= %v", rAlways.MeanResponse(), rNever.MeanResponse())
	}
	if rAlways.BoostedFrac != 1 {
		t.Fatalf("timeout 0 should boost everything, got %v", rAlways.BoostedFrac)
	}
	if rNever.BoostedFrac != 0 {
		t.Fatalf("infinite timeout should never boost, got %v", rNever.BoostedFrac)
	}
}

func TestBoostRateBelowOneHurts(t *testing.T) {
	base := Config{
		Servers:   1,
		Arrival:   stats.Exponential{Rate: 0.6},
		Service:   stats.Exponential{Rate: 1},
		Queries:   50000,
		Warmup:    500,
		Seed:      4,
		Timeout:   0.5,
		BoostRate: 0.6, // contention makes boosting counterproductive
	}
	bad, err := Simulate(base)
	if err != nil {
		t.Fatal(err)
	}
	base.Timeout = math.Inf(1)
	base.BoostRate = 1
	good, err := Simulate(base)
	if err != nil {
		t.Fatal(err)
	}
	if bad.MeanResponse() <= good.MeanResponse() {
		t.Fatalf("BoostRate<1 should degrade response: %v <= %v",
			bad.MeanResponse(), good.MeanResponse())
	}
}

func TestTimeoutMonotoneBoostFraction(t *testing.T) {
	mk := func(timeout float64) float64 {
		cfg := Config{
			Servers:   2,
			Arrival:   stats.Exponential{Rate: 1.8},
			Service:   stats.Exponential{Rate: 1},
			Timeout:   timeout,
			BoostRate: 1.5,
			Queries:   30000,
			Warmup:    300,
			Seed:      5,
		}
		res, err := Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.BoostedFrac
	}
	prev := 1.1
	for _, timeout := range []float64{0, 0.5, 1, 2, 4, 8} {
		f := mk(timeout)
		if f > prev+0.01 {
			t.Fatalf("boost fraction rose with timeout: %v at %v", f, timeout)
		}
		prev = f
	}
}

func TestQueueDelayNonNegativeAndResponseAtLeastService(t *testing.T) {
	cfg := Config{
		Servers:   2,
		Arrival:   stats.Exponential{Rate: 1.5},
		Service:   stats.LognormalFromMeanCV(1, 1),
		Timeout:   1,
		BoostRate: 2,
		Queries:   5000,
		Warmup:    100,
		Seed:      6,
	}
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range res.QueueDelays {
		if d < 0 {
			t.Fatalf("negative queue delay at %d: %v", i, d)
		}
		if res.ResponseTimes[i] < d {
			t.Fatalf("response < queue delay at %d", i)
		}
	}
}

func TestNoQueueWhenArrivalsSparseProperty(t *testing.T) {
	// Property: with deterministic inter-arrivals strictly longer than
	// the (deterministic) service time, no query ever waits.
	f := func(svcRaw, gapRaw uint8) bool {
		svc := 0.1 + float64(svcRaw)/255
		gap := svc + 0.05 + float64(gapRaw)/255
		res, err := Simulate(Config{
			Servers:   1,
			Arrival:   stats.Deterministic{Value: gap},
			Service:   stats.Deterministic{Value: svc},
			Timeout:   math.Inf(1),
			BoostRate: 1,
			Queries:   200,
			Warmup:    10,
			Seed:      1,
		})
		if err != nil {
			return false
		}
		for _, d := range res.QueueDelays {
			if d > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSimulateDeterministic(t *testing.T) {
	cfg := Config{
		Servers:   2,
		Arrival:   stats.Exponential{Rate: 1},
		Service:   stats.Exponential{Rate: 1},
		Timeout:   1,
		BoostRate: 1.5,
		Queries:   1000,
		Warmup:    10,
		Seed:      7,
	}
	a, _ := Simulate(cfg)
	b, _ := Simulate(cfg)
	for i := range a.ResponseTimes {
		if a.ResponseTimes[i] != b.ResponseTimes[i] {
			t.Fatal("simulation not deterministic")
		}
	}
}

func TestConfigValidation(t *testing.T) {
	good := Config{
		Servers: 1, Arrival: stats.Exponential{Rate: 1},
		Service: stats.Exponential{Rate: 2}, Timeout: 1, BoostRate: 1, Queries: 10,
	}
	bad := good
	bad.Servers = 0
	if _, err := Simulate(bad); err == nil {
		t.Error("zero servers accepted")
	}
	bad = good
	bad.Arrival = nil
	if _, err := Simulate(bad); err == nil {
		t.Error("nil arrival accepted")
	}
	bad = good
	bad.Queries = 0
	if _, err := Simulate(bad); err == nil {
		t.Error("zero queries accepted")
	}
	bad = good
	bad.BoostRate = 0
	if _, err := Simulate(bad); err == nil {
		t.Error("zero boost rate accepted")
	}
	bad = good
	bad.Timeout = -1
	if _, err := Simulate(bad); err == nil {
		t.Error("negative timeout accepted")
	}
}

// TestNegativeWarmupRejected is the regression test for a negative
// Warmup, which validate used to accept: Queries 100 with Warmup -40
// simulated and measured only 60 queries, yet divided the boosted count
// by 100, so a run in which every query boosted reported BoostedFrac
// 0.6. It must be an error on both entry points.
func TestNegativeWarmupRejected(t *testing.T) {
	cfg := Config{
		Servers: 1, Arrival: stats.Exponential{Rate: 1},
		Service: stats.Exponential{Rate: 2}, Timeout: 0, BoostRate: 2,
		Queries: 100, Warmup: -40, Seed: 1,
	}
	if res, err := Simulate(cfg); err == nil {
		t.Fatalf("negative warmup accepted: %d queries measured, BoostedFrac %v",
			len(res.ResponseTimes), res.BoostedFrac)
	}
	if _, err := NewSimulator().Run(cfg); err == nil {
		t.Fatal("Simulator.Run accepted a negative warmup")
	}
	cfg.Warmup = 0
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ResponseTimes) != 100 || res.BoostedFrac != 1 {
		t.Fatalf("zero warmup: %d queries, BoostedFrac %v; want 100 and 1",
			len(res.ResponseTimes), res.BoostedFrac)
	}
}

func TestMMcErrors(t *testing.T) {
	if _, err := MMcWait(2, 1, 1); err == nil {
		t.Error("unstable M/M/1 accepted")
	}
	if _, err := MMcWait(0, 1, 1); err == nil {
		t.Error("zero lambda accepted")
	}
	if _, err := MM1Response(2, 1); err == nil {
		t.Error("unstable M/M/1 accepted")
	}
}

func TestSimulateMatchesMG1(t *testing.T) {
	// Lognormal service with CV 0.8: the simulator must match the
	// Pollaczek–Khinchine mean wait.
	lambda, meanS, cv := 0.7, 1.0, 0.8
	cfg := Config{
		Servers:   1,
		Arrival:   stats.Exponential{Rate: lambda},
		Service:   stats.LognormalFromMeanCV(meanS, cv),
		Timeout:   math.Inf(1),
		BoostRate: 1,
		Queries:   300000,
		Warmup:    3000,
		Seed:      8,
	}
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wait, err := MG1Wait(lambda, meanS, cv)
	if err != nil {
		t.Fatal(err)
	}
	got := res.MeanQueueDelay()
	if math.Abs(got-wait)/wait > 0.06 {
		t.Fatalf("M/G/1 mean wait %v, analytic %v", got, wait)
	}
}

func TestMG1ReducesToMM1(t *testing.T) {
	// CV=1 (exponential): P-K must equal M/M/1 wait ρ/(µ−λ).
	w, err := MG1Wait(0.5, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w-1) > 1e-12 {
		t.Fatalf("P-K with CV=1 = %v, want 1", w)
	}
}

func TestMG1Errors(t *testing.T) {
	if _, err := MG1Wait(2, 1, 0.5); err == nil {
		t.Error("unstable M/G/1 accepted")
	}
	if _, err := MG1Wait(0.5, -1, 0.5); err == nil {
		t.Error("negative service accepted")
	}
}

func TestMMcReducesToMM1(t *testing.T) {
	w1, err := MMcWait(0.5, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// M/M/1 wait = ρ/(µ−λ) = 0.5/0.5 = 1.
	if math.Abs(w1-1) > 1e-9 {
		t.Fatalf("M/M/1 wait via Erlang C = %v, want 1", w1)
	}
}

// MMcWait returns the analytic mean waiting time (excluding service) of an
// M/M/c queue with arrival rate lambda, per-server service rate mu and c
// servers, via the Erlang-C formula. It returns an error when the system
// is unstable (ρ >= 1).
func MMcWait(lambda, mu float64, c int) (float64, error) {
	if lambda <= 0 || mu <= 0 || c <= 0 {
		return 0, fmt.Errorf("queueing: bad M/M/c parameters")
	}
	rho := lambda / (float64(c) * mu)
	if rho >= 1 {
		return 0, fmt.Errorf("queueing: unstable system (rho=%v)", rho)
	}
	a := lambda / mu
	// Erlang C: P(wait) = (a^c/c!)·(1/(1-ρ)) / (Σ_{k<c} a^k/k! + a^c/c!·1/(1-ρ))
	sum := 0.0
	term := 1.0 // a^k / k!
	for k := 0; k < c; k++ {
		sum += term
		term *= a / float64(k+1)
	}
	top := term / (1 - rho) // a^c/c! × 1/(1-ρ)
	pWait := top / (sum + top)
	return pWait / (float64(c)*mu - lambda), nil
}

// MM1Response returns the analytic mean response time of an M/M/1 queue.
func MM1Response(lambda, mu float64) (float64, error) {
	if lambda >= mu {
		return 0, fmt.Errorf("queueing: unstable M/M/1 (lambda=%v mu=%v)", lambda, mu)
	}
	return 1 / (mu - lambda), nil
}

// MG1Wait returns the analytic mean waiting time of an M/G/1 queue via
// the Pollaczek–Khinchine formula: W = λ·E[S²] / (2(1−ρ)). meanS and
// cvS describe the general service distribution.
func MG1Wait(lambda, meanS, cvS float64) (float64, error) {
	if lambda <= 0 || meanS <= 0 || cvS < 0 {
		return 0, fmt.Errorf("queueing: bad M/G/1 parameters")
	}
	rho := lambda * meanS
	if rho >= 1 {
		return 0, fmt.Errorf("queueing: unstable M/G/1 (rho=%v)", rho)
	}
	es2 := meanS * meanS * (1 + cvS*cvS)
	return lambda * es2 / (2 * (1 - rho)), nil
}

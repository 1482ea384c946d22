package loadgen

import (
	"sync/atomic"
	"testing"
	"time"

	"stac/internal/serve"
)

// stubTarget answers instantly and can fail every Nth request with a
// typed shed error.
type stubTarget struct {
	calls   atomic.Int64
	shedMod int64
}

func (s *stubTarget) Predict(req serve.PredictRequest) (serve.PredictResponse, error) {
	n := s.calls.Add(1)
	if s.shedMod > 0 && n%s.shedMod == 0 {
		return serve.PredictResponse{}, &serve.Error{Code: serve.CodeQueueFull, Status: 503}
	}
	return serve.PredictResponse{Service: req.Service, EA: 0.5, Cached: true, ModelVersion: 1}, nil
}

func TestClosedLoopSmoke(t *testing.T) {
	target := &stubTarget{}
	res, err := Run(Config{
		Mode: "closed", Workers: 2,
		Duration: 100 * time.Millisecond, Warmup: 10 * time.Millisecond,
		Services: []string{"redis", "bfs"}, Conditions: 16,
	}, target)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK == 0 || res.QPS <= 0 {
		t.Fatalf("closed loop produced no throughput: %+v", res)
	}
	if res.CacheHitRatio != 1 {
		t.Errorf("cache hit ratio = %v, want 1 (stub always reports cached)", res.CacheHitRatio)
	}
	if res.P99MS < res.P50MS {
		t.Errorf("p99 (%v) below p50 (%v)", res.P99MS, res.P50MS)
	}
}

func TestClosedLoopCountsTypedErrors(t *testing.T) {
	target := &stubTarget{shedMod: 2}
	res, err := Run(Config{
		Mode: "closed", Workers: 1,
		Duration: 50 * time.Millisecond, Warmup: 0,
		Services: []string{"redis"},
	}, target)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors[serve.CodeQueueFull] == 0 {
		t.Fatalf("typed queue_full errors were not counted: %+v", res)
	}
	if res.Requests != res.OK+res.Errors[serve.CodeQueueFull] {
		t.Errorf("requests %d != ok %d + errors %d", res.Requests, res.OK, res.Errors[serve.CodeQueueFull])
	}
}

func TestOpenLoopSmoke(t *testing.T) {
	target := &stubTarget{}
	res, err := Run(Config{
		Mode: "open", Workers: 8, TargetQPS: 2000,
		Duration: 200 * time.Millisecond, Warmup: 10 * time.Millisecond,
		Services: []string{"redis"}, Conditions: 8,
	}, target)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK == 0 {
		t.Fatalf("open loop completed no requests: %+v", res)
	}
	if res.OfferedQPS != 2000 {
		t.Errorf("offered qps = %v, want 2000", res.OfferedQPS)
	}
}

// TestOpenLoopTimesFromDueTime drives the open loop far faster than
// the generator can dispatch, against an instant target: each request
// goes out later than the last, and the last about as late as the run
// overran its schedule. The reported tail must include that lag, not
// just the target's microseconds.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const duration = 10 * time.Millisecond
	res, err := Run(Config{
		Mode: "open", Workers: 8, TargetQPS: 1e7,
		Duration: duration, Warmup: -1,
		Services: []string{"redis"}, Conditions: 8,
	}, &stubTarget{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Overruns == 0 {
		t.Fatalf("the generator kept up with 1e7 arrivals/s: %+v", res)
	}
	lagMS := res.Seconds*1e3 - float64(duration)/float64(time.Millisecond)
	if res.P99MS < lagMS/2 {
		t.Errorf("p99 %.3f ms hides the generator's lag: the run overran its %v schedule by %.3f ms",
			res.P99MS, duration, lagMS)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{Services: nil}, &stubTarget{}); err == nil {
		t.Error("no services: want an error")
	}
	if _, err := Run(Config{Mode: "open", Services: []string{"redis"}}, &stubTarget{}); err == nil {
		t.Error("open mode without target QPS: want an error")
	}
	if _, err := Run(Config{Mode: "bogus", Services: []string{"redis"}}, &stubTarget{}); err == nil {
		t.Error("unknown mode: want an error")
	}
	if _, err := Run(Config{Services: []string{"redis"}}, nil); err == nil {
		t.Error("nil target: want an error")
	}
}

func TestPoolIsDeterministic(t *testing.T) {
	cfg := Config{Services: []string{"redis", "bfs"}, Conditions: 32, Seed: 7}.defaults()
	a := buildPool(cfg)
	b := buildPool(cfg)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pool differs at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	for i, req := range a {
		if req.Load <= 0 || req.Load >= 1 {
			t.Errorf("pool[%d].Load = %v outside (0,1)", i, req.Load)
		}
	}
}

package serve

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"stac/internal/cat"
	"stac/internal/core"
	"stac/internal/obs"
	"stac/internal/profile"
)

// Config parameterises an Engine. The zero value gets sensible serving
// defaults from defaults().
type Config struct {
	// Servers is the per-service parallelism the predictor models
	// (default 2, matching the evaluation deployments).
	Servers int
	// MaxBatch caps how many queued predictions one PredictBatch call
	// absorbs (default 64). The batcher never waits for companions: a
	// batch is whatever queued while the model was busy.
	MaxBatch int
	// QueueDepth bounds the admission queue; a full queue sheds with a
	// typed 503 (default 1024).
	QueueDepth int
	// RateLimit admits at most this many predictions/second (token
	// bucket, burst RateBurst); 0 disables the limit. Excess sheds with
	// a typed 429.
	RateLimit float64
	RateBurst int
	// DefaultDeadline applies when a request carries none (default
	// 50ms). Requests whose deadline passes while queued fail with a
	// typed 504 before the model is invoked.
	DefaultDeadline time.Duration
	// CacheSize is the prediction cache capacity in entries per
	// generation (default 65536; negative disables caching).
	CacheSize int
	// Obs is the metrics registry (default obs.Default).
	Obs *obs.Registry
}

func (c Config) defaults() Config {
	if c.Servers <= 0 {
		c.Servers = 2
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 50 * time.Millisecond
	}
	if c.CacheSize == 0 {
		c.CacheSize = 65536
	}
	if c.Obs == nil {
		c.Obs = obs.Default
	}
	return c
}

// PredictRequest asks for a prediction under one runtime condition.
// Layout fields (private/shared ways) default to the profiled
// deployment's when zero and must lie in [0, 64], the simulator's way
// limit.
type PredictRequest struct {
	Service        string  `json:"service"`
	Load           float64 `json:"load"`
	Timeout        float64 `json:"timeout"`
	PartnerLoad    float64 `json:"partner_load"`
	PartnerTimeout float64 `json:"partner_timeout"`
	PrivateWays    int     `json:"private_ways,omitempty"`
	SharedWays     int     `json:"shared_ways,omitempty"`
	// Full selects the full three-stage response-time prediction
	// (queueing simulation included) instead of the batched
	// effective-allocation fast path.
	Full bool `json:"full,omitempty"`
	// DeadlineMS overrides the server's default deadline.
	DeadlineMS float64 `json:"deadline_ms,omitempty"`
	// NoCache bypasses the prediction cache (the result is still
	// stored). Load generators use it to exercise the cold path.
	NoCache bool `json:"no_cache,omitempty"`
}

// PredictResponse is the engine's answer.
type PredictResponse struct {
	Service string  `json:"service"`
	EA      float64 `json:"ea"`
	// Prediction carries the full response-time prediction when the
	// request asked for it.
	Prediction   *core.Prediction `json:"prediction,omitempty"`
	ModelVersion int              `json:"model_version"`
	Cached       bool             `json:"cached"`
}

// Engine is the serving core: admission control in front of a
// prediction cache, a request batcher over the registry's current
// model, and the full predictor for response-time requests. Construct
// with NewEngine; all methods are safe for concurrent use.
type Engine struct {
	cfg      Config
	registry *Registry
	batcher  *batcher
	cache    *predCache
	limiter  *tokenBucket
	draining atomic.Bool

	requests     *obs.Counter
	predictions  *obs.Counter
	errors       *obs.Counter
	latency      *obs.Histogram
	shedRate     *obs.Counter
	shedDrain    *obs.Counter
	modelVer     *obs.Gauge
	reloads      *obs.Counter
	reloadErrors *obs.Counter
}

// NewEngine assembles an engine around an empty registry; load a model
// with LoadModel (or Install on the registry) before serving.
func NewEngine(cfg Config) *Engine {
	cfg = cfg.defaults()
	e := &Engine{
		cfg:      cfg,
		registry: NewRegistry(cfg.Servers),
		batcher:  newBatcher(cfg.MaxBatch, cfg.QueueDepth, cfg.Obs),
		cache:    newPredCache(cfg.CacheSize, cfg.Obs),
		limiter:  newTokenBucket(cfg.RateLimit, cfg.RateBurst),

		requests:     cfg.Obs.Counter("serve/requests"),
		predictions:  cfg.Obs.Counter("serve/predictions"),
		errors:       cfg.Obs.Counter("serve/errors"),
		latency:      cfg.Obs.Histogram("serve/predict/latency"),
		shedRate:     cfg.Obs.Counter("serve/shed/rate_limited"),
		shedDrain:    cfg.Obs.Counter("serve/shed/draining"),
		modelVer:     cfg.Obs.Gauge("serve/model/version"),
		reloads:      cfg.Obs.Counter("serve/model/reloads"),
		reloadErrors: cfg.Obs.Counter("serve/model/reload_errors"),
	}
	return e
}

// LoadModel loads (or hot-reloads) a model + library pair from disk.
// The swap is atomic; the old version drains. The prediction cache is
// cleared and scoped to the new version — its entries, and any that
// requests still running on the retired model would store, belong to
// that model. A file that fails to load leaves the current version
// serving.
func (e *Engine) LoadModel(modelPath, dataPath string) (ModelInfo, error) {
	info, _, err := e.registry.Load(modelPath, dataPath)
	return e.swapped(info, err)
}

// Install hot-swaps an in-memory model + library (tests, embedders).
func (e *Engine) Install(model BatchModel, library profile.Dataset) (ModelInfo, error) {
	info, _, err := e.registry.Install(model, library)
	return e.swapped(info, err)
}

// Reload re-reads the registry's configured paths. A malformed model
// file fails with the decoder's typed error (*deepforest.FormatError)
// and the current version keeps serving.
func (e *Engine) Reload() (ModelInfo, error) {
	info, _, err := e.registry.Reload()
	return e.swapped(info, err)
}

// swapped accounts for one load attempt: a failure moves
// serve/model/reload_errors, a success scopes the prediction cache to
// the new version.
func (e *Engine) swapped(info ModelInfo, err error) (ModelInfo, error) {
	if err != nil {
		e.reloadErrors.Inc()
		return ModelInfo{}, err
	}
	if e.cache != nil {
		e.cache.clear(info.Version)
	}
	e.modelVer.Set(float64(info.Version))
	e.reloads.Inc()
	return info, nil
}

// Close drains the engine: new requests shed with a typed 503, queued
// requests are answered, the batcher stops.
func (e *Engine) Close() {
	if e.draining.Swap(true) {
		return
	}
	e.batcher.close()
}

// Predict answers one prediction request through admission control,
// the cache, and the batched model (or the full predictor).
func (e *Engine) Predict(req PredictRequest) (PredictResponse, *Error) {
	start := time.Now()
	e.requests.Inc()
	resp, err := e.predict(req, start)
	if err != nil {
		e.errors.Inc()
		return PredictResponse{}, err
	}
	e.predictions.Inc()
	e.latency.Observe(time.Since(start).Seconds())
	return resp, nil
}

func (e *Engine) predict(req PredictRequest, start time.Time) (PredictResponse, *Error) {
	if e.draining.Load() {
		e.shedDrain.Inc()
		return PredictResponse{}, errDraining()
	}
	if !e.limiter.allow() {
		e.shedRate.Inc()
		return PredictResponse{}, errRateLimited()
	}

	v := e.registry.Acquire()
	if v == nil {
		return PredictResponse{}, errNoModel()
	}
	defer v.Release()
	version := v.info.Version

	scen, key, bad := buildScenario(v, req)
	if bad != nil {
		return PredictResponse{}, bad
	}
	if e.cache != nil && !req.NoCache {
		if p, ok := e.cache.get(version, key); ok {
			return response(req, version, p, true), nil
		}
	}

	deadline := start.Add(e.cfg.DefaultDeadline)
	if req.DeadlineMS > 0 {
		// Past about 292 years a float-to-Duration conversion overflows
		// to a deadline in the past, so longer ones wait the longest a
		// Duration can say.
		d := time.Duration(math.MaxInt64)
		if ns := req.DeadlineMS * float64(time.Millisecond); ns < math.MaxInt64 {
			d = time.Duration(ns)
		}
		deadline = start.Add(d)
	}
	if time.Now().After(deadline) {
		e.batcher.shedLate.Inc()
		return PredictResponse{}, errDeadlineExceeded("before admission")
	}

	var p core.Prediction
	if req.Full {
		var err error
		if p, err = v.pred.PredictResponse(scen); err != nil {
			return PredictResponse{}, errInternal(err)
		}
	} else {
		features, err := v.builder.Build(scen)
		if err != nil {
			return PredictResponse{}, errInternal(err)
		}
		ea, berr := e.batcher.submit(v, features, deadline)
		if berr != nil {
			return PredictResponse{}, berr
		}
		p.EA = core.ClampEA(ea)
	}
	if e.cache != nil {
		e.cache.put(version, key, p)
	}
	return response(req, version, p, false), nil
}

// response answers req with the prediction p that model version made.
func response(req PredictRequest, version int, p core.Prediction, cached bool) PredictResponse {
	resp := PredictResponse{Service: req.Service, EA: p.EA, ModelVersion: version, Cached: cached}
	if req.Full {
		full := p // &p would move p to the heap on the fast path too
		resp.Prediction = &full
	}
	return resp
}

// buildScenario fills the service's calibrated template with the
// request's runtime condition and derives the cache key.
func buildScenario(v *Version, req PredictRequest) (core.Scenario, cacheKey, *Error) {
	svc, tmpl, ok := v.service(req.Service)
	if !ok {
		return core.Scenario{}, cacheKey{}, errBadRequest("unknown service " + req.Service +
			" (not in the profiling library)")
	}
	if !validWays(req.PrivateWays) || !validWays(req.SharedWays) {
		return core.Scenario{}, cacheKey{}, errBadRequest(fmt.Sprintf(
			"private_ways and shared_ways must be in [0,%d]", cat.MaxWays))
	}
	scen := tmpl
	scen.Load = req.Load
	scen.Timeout = req.Timeout
	scen.PartnerLoad = req.PartnerLoad
	scen.PartnerTimeout = req.PartnerTimeout
	if req.PrivateWays > 0 {
		scen.PrivateWays = req.PrivateWays
	}
	if req.SharedWays > 0 {
		scen.SharedWays = req.SharedWays
	}
	if scen.Load <= 0 || scen.Load >= 1 {
		return core.Scenario{}, cacheKey{}, errBadRequest("load must be in (0,1)")
	}
	if scen.PartnerLoad < 0 || scen.PartnerLoad >= 1 {
		return core.Scenario{}, cacheKey{}, errBadRequest("partner_load must be in [0,1)")
	}
	if scen.Timeout < 0 || scen.PartnerTimeout < 0 ||
		math.IsNaN(scen.Timeout) || math.IsNaN(scen.PartnerTimeout) {
		return core.Scenario{}, cacheKey{}, errBadRequest("timeouts must be non-negative")
	}
	key := cacheKey{
		load:        quantise(scen.Load),
		timeout:     quantise(scen.Timeout),
		pload:       quantise(scen.PartnerLoad),
		ptimeout:    quantise(scen.PartnerTimeout),
		service:     int32(svc),
		privateWays: uint8(scen.PrivateWays),
		sharedWays:  uint8(scen.SharedWays),
		full:        req.Full,
	}
	return scen, key, nil
}

// validWays reports whether a way count lies in [0, cat.MaxWays], the
// simulator's way limit. Registry.Install holds templates to it, so the
// cache key can store each count of a scenario in a byte.
func validWays(n int) bool { return n >= 0 && n <= cat.MaxWays }

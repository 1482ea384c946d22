package serve

import (
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"stac/internal/cat"
	"stac/internal/core"
	"stac/internal/obs"
	"stac/internal/profile"
)

// stubModel is a deterministic BatchModel that counts invocations and
// rows, records each batch call's size, and can block batch calls on a
// gate for queue-pressure tests.
type stubModel struct {
	ea    float64
	calls atomic.Int64 // PredictBatch invocations
	rows  atomic.Int64 // total rows across invocations
	gate  chan struct{}

	mu    sync.Mutex
	sizes []int // rows per PredictBatch call, in call order
}

func (m *stubModel) Predict(features []float64) float64 { return m.ea }

func (m *stubModel) PredictBatch(features [][]float64) []float64 {
	m.mu.Lock()
	m.sizes = append(m.sizes, len(features))
	m.mu.Unlock()
	m.calls.Add(1)
	m.rows.Add(int64(len(features)))
	if m.gate != nil {
		<-m.gate
	}
	out := make([]float64, len(features))
	for i := range out {
		out[i] = m.ea
	}
	return out
}

// batchSizes returns the rows of every PredictBatch call so far.
func (m *stubModel) batchSizes() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]int(nil), m.sizes...)
}

// syntheticLibrary builds a tiny in-memory profiling library: enough
// rows per service for templates, the input builder and the predictor,
// without running the testbed.
func syntheticLibrary(t testing.TB) profile.Dataset {
	t.Helper()
	mk := func(service string, load, timeout, fill float64, cond int) profile.Row {
		f := make([]float64, profile.NumFeatures)
		f[0] = load
		f[1] = timeout
		f[2] = 0.5
		f[3] = 2
		f[4], f[5], f[6], f[7] = 2, 2, 2, 1
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
			mk("bfs", 0.5, 2, 300, 3),
			mk("bfs", 0.9, 1, 500, 4),
		},
	}
}

func newTestEngine(t *testing.T, model BatchModel, cfg Config) *Engine {
	t.Helper()
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	e := NewEngine(cfg)
	t.Cleanup(e.Close)
	if _, err := e.Install(model, syntheticLibrary(t)); err != nil {
		t.Fatal(err)
	}
	return e
}

func testRequest() PredictRequest {
	return PredictRequest{
		Service: "redis", Load: 0.6, Timeout: 1, PartnerLoad: 0.4, PartnerTimeout: 2,
	}
}

func TestEnginePredictAndCache(t *testing.T) {
	m := &stubModel{ea: 0.7}
	e := newTestEngine(t, m, Config{})

	r1, serr := e.Predict(testRequest())
	if serr != nil {
		t.Fatalf("predict: %v", serr)
	}
	if r1.Cached {
		t.Error("first prediction reported cached")
	}
	if r1.EA != 0.7 {
		t.Errorf("EA = %v, want the stub's 0.7", r1.EA)
	}
	if r1.ModelVersion != 1 {
		t.Errorf("model version = %d, want 1", r1.ModelVersion)
	}

	r2, serr := e.Predict(testRequest())
	if serr != nil {
		t.Fatalf("second predict: %v", serr)
	}
	if !r2.Cached {
		t.Error("identical request missed the prediction cache")
	}
	if got := m.rows.Load(); got != 1 {
		t.Errorf("model saw %d rows, want 1 (cache must absorb the repeat)", got)
	}
}

// TestEngineCacheKeepsNearbyLoadsApart pins the cache key's 1e-3
// resolution: loads 0.76 and 0.84 are distinct conditions, so the
// second request must miss the cache and reach the model.
func TestEngineCacheKeepsNearbyLoadsApart(t *testing.T) {
	m := &stubModel{ea: 0.7}
	e := newTestEngine(t, m, Config{})
	for _, load := range []float64{0.76, 0.84} {
		req := testRequest()
		req.Load = load
		r, serr := e.Predict(req)
		if serr != nil {
			t.Fatalf("predict load %v: %v", load, serr)
		}
		if r.Cached {
			t.Errorf("load %v answered from the cache entry of another load", load)
		}
	}
	if got := m.rows.Load(); got != 2 {
		t.Errorf("model saw %d rows, want 2 (one per distinct load)", got)
	}
}

// TestEngineCacheScopedToVersion holds a request inside version 1's
// model while version 2 is installed. The held request finishes after
// the install has cleared the cache, with version 1's answer. That
// answer must not be stored: the next request for the same condition
// reaches version 2's model, and the one after hits version 2's entry.
func TestEngineCacheScopedToVersion(t *testing.T) {
	lib := syntheticLibrary(t)
	m1 := &stubModel{ea: 0.25, gate: make(chan struct{})}
	m2 := &stubModel{ea: 0.75}
	e := NewEngine(Config{Obs: obs.NewRegistry()})
	defer e.Close()
	if _, err := e.Install(m1, lib); err != nil {
		t.Fatal(err)
	}
	req := testRequest()
	req.DeadlineMS = 60_000 // the held request must reach the model

	held := make(chan PredictResponse, 1)
	go func() {
		resp, serr := e.Predict(req)
		if serr != nil {
			t.Errorf("held request: %v", serr)
		}
		held <- resp
	}()
	for m1.calls.Load() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	if _, err := e.Install(m2, lib); err != nil {
		t.Fatal(err)
	}
	close(m1.gate)
	if r := <-held; r.ModelVersion != 1 || r.EA != m1.ea || r.Cached {
		t.Fatalf("held request answered %+v, want version 1's uncached EA %v", r, m1.ea)
	}
	for _, wantCached := range []bool{false, true} {
		r, serr := e.Predict(req)
		if serr != nil {
			t.Fatalf("predict after the install: %v", serr)
		}
		if r.ModelVersion != 2 || r.EA != m2.ea || r.Cached != wantCached {
			t.Errorf("after the install: version %d, EA %v, cached %v; want version 2, EA %v, cached %v",
				r.ModelVersion, r.EA, r.Cached, m2.ea, wantCached)
		}
	}
	if got := m2.rows.Load(); got != 1 {
		t.Errorf("version 2's model saw %d rows, want 1", got)
	}
}

// TestInstallRefusesBadProfiledWays installs a library whose redis rows
// were profiled with 300 private ways. The install fails and names the
// service: serving it would have stored 300 as 44 in the cache key's
// byte.
func TestInstallRefusesBadProfiledWays(t *testing.T) {
	lib := syntheticLibrary(t)
	for i := range lib.Rows {
		if lib.Rows[i].Service == "redis" {
			lib.Rows[i].Features[profile.FeatPrivateWays] = 300
		}
	}
	e := NewEngine(Config{Obs: obs.NewRegistry()})
	defer e.Close()
	if _, err := e.Install(&stubModel{ea: 0.5}, lib); err == nil || !strings.Contains(err.Error(), `"redis"`) {
		t.Fatalf("install of redis profiled with 300 private ways: %v; want an error naming redis", err)
	}
	if _, ok := e.registry.Current(); ok {
		t.Error("a refused library was installed")
	}
}

func TestEngineRejectsBadRequests(t *testing.T) {
	e := newTestEngine(t, &stubModel{ea: 0.5}, Config{})
	cases := []PredictRequest{
		{Service: "nosuch", Load: 0.5},
		{Service: "redis", Load: 0},
		{Service: "redis", Load: 1.2},
		{Service: "redis", Load: 0.5, PartnerLoad: 1.5},
		{Service: "redis", Load: 0.5, Timeout: -1},
		// Way counts outside [0, 64], the simulator's way limit: a
		// negative one is not taken as unset, and 2^32+3 does not wrap
		// onto 3 and share its cache entry.
		{Service: "redis", Load: 0.5, PrivateWays: -1},
		{Service: "redis", Load: 0.5, PrivateWays: cat.MaxWays + 1},
		{Service: "redis", Load: 0.5, PrivateWays: 1<<32 + 3},
		{Service: "redis", Load: 0.5, SharedWays: -1},
		{Service: "redis", Load: 0.5, SharedWays: cat.MaxWays + 1},
		{Service: "redis", Load: 0.5, SharedWays: 1<<32 + 3},
	}
	for _, req := range cases {
		if _, serr := e.Predict(req); serr == nil || serr.Code != CodeBadRequest {
			t.Errorf("request %+v: error %v, want code %s", req, serr, CodeBadRequest)
		}
	}
	req := testRequest()
	req.PrivateWays, req.SharedWays = cat.MaxWays, cat.MaxWays
	if _, serr := e.Predict(req); serr != nil {
		t.Errorf("request at the way limit: %v", serr)
	}
}

// TestEngineHugeDeadlineAdmits sends a deadline longer than a
// time.Duration can hold: it must wait, not overflow into a deadline
// that has already passed.
func TestEngineHugeDeadlineAdmits(t *testing.T) {
	e := newTestEngine(t, &stubModel{ea: 0.5}, Config{})
	req := testRequest()
	req.DeadlineMS = 1e308
	if _, serr := e.Predict(req); serr != nil {
		t.Fatalf("predict with a 1e308 ms deadline: %v", serr)
	}
}

func TestEngineFullPrediction(t *testing.T) {
	e := newTestEngine(t, &stubModel{ea: 0.5}, Config{})
	req := testRequest()
	req.Full = true
	resp, serr := e.Predict(req)
	if serr != nil {
		t.Fatalf("full predict: %v", serr)
	}
	if resp.Prediction == nil {
		t.Fatal("full prediction carries no response-time breakdown")
	}
	if resp.Prediction.MeanResponse <= 0 {
		t.Errorf("mean response = %v, want positive", resp.Prediction.MeanResponse)
	}
}

func TestEngineDrainingSheds(t *testing.T) {
	e := newTestEngine(t, &stubModel{ea: 0.5}, Config{})
	e.Close()
	if _, serr := e.Predict(testRequest()); serr == nil || serr.Code != CodeDraining {
		t.Fatalf("predict on closed engine: %v, want code %s", serr, CodeDraining)
	}
}

func TestEngineRateLimitSheds429(t *testing.T) {
	e := newTestEngine(t, &stubModel{ea: 0.5}, Config{RateLimit: 0.001, RateBurst: 1})
	if _, serr := e.Predict(testRequest()); serr != nil {
		t.Fatalf("first request should pass the burst: %v", serr)
	}
	_, serr := e.Predict(testRequest())
	if serr == nil || serr.Code != CodeRateLimited {
		t.Fatalf("second request: %v, want code %s", serr, CodeRateLimited)
	}
	if serr.Status != 429 {
		t.Errorf("rate-limited status = %d, want 429", serr.Status)
	}
}

func TestRegistryReloadDrainsOldVersion(t *testing.T) {
	r := NewRegistry(2)
	lib := syntheticLibrary(t)
	if _, _, err := r.Install(&stubModel{ea: 0.4}, lib); err != nil {
		t.Fatal(err)
	}
	v1 := r.Acquire()
	if v1 == nil {
		t.Fatal("no current version after install")
	}

	_, old, err := r.Install(&stubModel{ea: 0.6}, lib)
	if err != nil {
		t.Fatal(err)
	}
	if old != v1 {
		t.Fatal("install did not return the displaced version")
	}
	if info, _ := r.Current(); info.Version != 2 {
		t.Fatalf("current version = %d, want 2", info.Version)
	}

	// The old version still serves its in-flight holder...
	select {
	case <-v1.drained:
		t.Fatal("old version drained while a reference was held")
	default:
	}
	// ...and drains, not drops, once released.
	v1.Release()
	select {
	case <-v1.drained:
	case <-time.After(time.Second):
		t.Fatal("old version never drained after the last release")
	}
}

func TestBatcherDeadlineExceededBeforeModel(t *testing.T) {
	reg := obs.NewRegistry()
	m := &stubModel{ea: 0.5}
	b := newBatcher(4, 16, reg)
	defer b.close()
	v := testVersion(m)

	_, serr := b.submit(v, []float64{1}, time.Now().Add(-time.Millisecond))
	if serr == nil || serr.Code != CodeDeadlineExceeded {
		t.Fatalf("expired submit: %v, want code %s", serr, CodeDeadlineExceeded)
	}
	if serr.Status != 504 {
		t.Errorf("deadline status = %d, want 504", serr.Status)
	}
	if got := m.calls.Load(); got != 0 {
		t.Fatalf("model invoked %d times for an already-expired request, want 0", got)
	}
	if got := reg.Counter("serve/shed/deadline").Load(); got != 1 {
		t.Errorf("serve/shed/deadline = %d, want 1 for the one expired request", got)
	}
}

func TestBatcherFullQueueSheds503(t *testing.T) {
	reg := obs.NewRegistry()
	gate := make(chan struct{})
	m := &stubModel{ea: 0.5, gate: gate}
	// Queue depth 1 so one waiter fills the queue while the dispatcher
	// is blocked on the gate.
	b := newBatcher(1, 1, reg)
	v := testVersion(m)
	far := time.Now().Add(time.Minute)

	first := make(chan *Error, 1)
	go func() {
		_, serr := b.submit(v, []float64{1}, far)
		first <- serr
	}()
	// Wait for the dispatcher to pull the first request into the model.
	for m.calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}

	second := make(chan *Error, 1)
	go func() {
		_, serr := b.submit(v, []float64{2}, far)
		second <- serr
	}()
	// Wait for the second request to occupy the single queue slot (the
	// dispatcher is wedged on the gate, so it cannot be consumed); the
	// third must then shed immediately.
	for len(b.queue) == 0 {
		time.Sleep(time.Millisecond)
	}
	_, serr := b.submit(v, []float64{3}, far)
	if serr == nil || serr.Code != CodeQueueFull {
		t.Fatalf("submit on full queue: %v, want code %s", serr, CodeQueueFull)
	}
	if serr.Status != 503 {
		t.Errorf("queue-full status = %d, want 503", serr.Status)
	}

	close(gate)
	if serr := <-first; serr != nil {
		t.Errorf("first request failed: %v", serr)
	}
	if serr := <-second; serr != nil {
		t.Errorf("second request failed: %v", serr)
	}
	b.close()
}

// testVersion wraps a model in a version with the submitter's
// reference already taken.
func testVersion(m BatchModel) *Version {
	v := &Version{model: m, drained: make(chan struct{})}
	v.refs.Store(1)
	return v
}

// submitAsync submits one request on its own goroutine and waits until
// it is queued, so successive calls enqueue in call order while the
// dispatcher is held in the model.
func submitAsync(t *testing.T, b *batcher, v *Version, wg *sync.WaitGroup, got chan<- float64) {
	t.Helper()
	queued := len(b.queue)
	wg.Add(1)
	go func() {
		defer wg.Done()
		ea, serr := b.submit(v, []float64{1}, time.Now().Add(time.Minute))
		if serr != nil {
			t.Errorf("submit: %v", serr)
		}
		got <- ea
	}()
	for len(b.queue) == queued {
		time.Sleep(100 * time.Microsecond)
	}
}

// holdFirstCall submits one request and waits until the dispatcher has
// taken it into the model, where m's gate holds it.
func holdFirstCall(t *testing.T, b *batcher, m *stubModel, v *Version, wg *sync.WaitGroup, got chan<- float64) {
	t.Helper()
	wg.Add(1)
	go func() {
		defer wg.Done()
		ea, serr := b.submit(v, []float64{0}, time.Now().Add(time.Minute))
		if serr != nil {
			t.Errorf("submit: %v", serr)
		}
		got <- ea
	}()
	for m.calls.Load() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
}

func TestBatcherLoneRequestRunsAlone(t *testing.T) {
	reg := obs.NewRegistry()
	m := &stubModel{ea: 0.5, gate: make(chan struct{})}
	b := newBatcher(64, 16, reg)
	defer b.close()
	v := testVersion(m)

	var wg sync.WaitGroup
	got := make(chan float64, 1)
	// The model is entered while nothing else is queued: the dispatcher
	// did not wait for companions.
	holdFirstCall(t, b, m, v, &wg, got)
	close(m.gate)
	wg.Wait()
	if ea := <-got; ea != 0.5 {
		t.Errorf("prediction = %v, want 0.5", ea)
	}
	if sizes := m.batchSizes(); !slices.Equal(sizes, []int{1}) {
		t.Errorf("batch sizes = %v, want one single-row call", sizes)
	}
	if full, short := b.flushFull.Load(), b.flushDelay.Load(); full != 0 || short != 1 {
		t.Errorf("flush_full = %d, flush_delay = %d, want 0 and 1", full, short)
	}
}

func TestBatcherQueuedRequestsFormNextBatch(t *testing.T) {
	const maxBatch = 8
	for _, k := range []int{1, 3, maxBatch} {
		reg := obs.NewRegistry()
		m := &stubModel{ea: 0.5, gate: make(chan struct{})}
		b := newBatcher(maxBatch, 16, reg)
		v := testVersion(m)

		var wg sync.WaitGroup
		got := make(chan float64, k+1)
		holdFirstCall(t, b, m, v, &wg, got)
		for i := 0; i < k; i++ {
			submitAsync(t, b, v, &wg, got)
		}
		close(m.gate)
		wg.Wait()
		b.close()
		if sizes := m.batchSizes(); !slices.Equal(sizes, []int{1, k}) {
			t.Errorf("k=%d: batch sizes = %v, want [1 %d]", k, sizes, k)
		}
		wantFull := uint64(0)
		if k == maxBatch {
			wantFull = 1
		}
		if full := b.flushFull.Load(); full != wantFull {
			t.Errorf("k=%d: flush_full = %d, want %d", k, full, wantFull)
		}
	}
}

func TestBatcherSplitsBacklogIntoFullBatches(t *testing.T) {
	reg := obs.NewRegistry()
	m := &stubModel{ea: 0.5, gate: make(chan struct{})}
	b := newBatcher(4, 16, reg)
	v := testVersion(m)

	var wg sync.WaitGroup
	got := make(chan float64, 12)
	holdFirstCall(t, b, m, v, &wg, got)
	for i := 0; i < 11; i++ {
		submitAsync(t, b, v, &wg, got)
	}
	close(m.gate)
	wg.Wait()
	b.close()
	if sizes := m.batchSizes(); !slices.Equal(sizes, []int{1, 4, 4, 3}) {
		t.Errorf("batch sizes = %v, want [1 4 4 3]", sizes)
	}
	if full, short := b.flushFull.Load(), b.flushDelay.Load(); full != 2 || short != 2 {
		t.Errorf("flush_full = %d, flush_delay = %d, want 2 and 2", full, short)
	}
}

func TestBatcherNeverMixesVersions(t *testing.T) {
	reg := obs.NewRegistry()
	m1 := &stubModel{ea: 0.25, gate: make(chan struct{})}
	m2 := &stubModel{ea: 0.75}
	b := newBatcher(64, 16, reg)
	v1, v2 := testVersion(m1), testVersion(m2)

	var wg sync.WaitGroup
	got1 := make(chan float64, 4)
	got2 := make(chan float64, 3)
	holdFirstCall(t, b, m1, v1, &wg, got1)
	// Queue v1 v1 v2 v2 v1 v2 behind the held call.
	for _, step := range []struct {
		v   *Version
		got chan float64
	}{{v1, got1}, {v1, got1}, {v2, got2}, {v2, got2}, {v1, got1}, {v2, got2}} {
		submitAsync(t, b, step.v, &wg, step.got)
	}
	close(m1.gate)
	wg.Wait()
	b.close()
	close(got1)
	close(got2)
	for ea := range got1 {
		if ea != m1.ea {
			t.Errorf("version 1 request answered %v, want %v", ea, m1.ea)
		}
	}
	for ea := range got2 {
		if ea != m2.ea {
			t.Errorf("version 2 request answered %v, want %v", ea, m2.ea)
		}
	}
	if sizes := m1.batchSizes(); !slices.Equal(sizes, []int{1, 2, 1}) {
		t.Errorf("version 1 batch sizes = %v, want [1 2 1]", sizes)
	}
	if sizes := m2.batchSizes(); !slices.Equal(sizes, []int{2, 1}) {
		t.Errorf("version 2 batch sizes = %v, want [2 1]", sizes)
	}
}

// TestEngineReloadUnderConcurrentPredicts exercises hot reload against
// live traffic; run with -race it is the registry's safety proof. Every
// response must come from a whole, installed version, old versions must
// drain, and no request may fail.
func TestEngineReloadUnderConcurrentPredicts(t *testing.T) {
	lib := syntheticLibrary(t)
	reg := obs.NewRegistry()
	e := NewEngine(Config{Obs: reg})
	defer e.Close()
	// Each version answers its own EA, so a cached answer of one
	// version under another's number shows.
	eaOf := func(version int) float64 { return 0.05 * float64(version) }
	if _, err := e.Install(&stubModel{ea: eaOf(1)}, lib); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var failures atomic.Int64
	var installed atomic.Int64 // newest version whose Install has returned
	installed.Store(1)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := testRequest()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// A request sent after version floor was installed must
				// be answered by it or a newer one. The floor is read
				// before the request, not after the response: a request
				// acquired before a swap is rightly answered by the
				// displaced version, however many installs follow.
				floor := installed.Load()
				resp, serr := e.Predict(req)
				if serr != nil {
					failures.Add(1)
					t.Errorf("predict during reload: %v", serr)
					return
				}
				if int64(resp.ModelVersion) < floor {
					failures.Add(1)
					t.Errorf("response from version %d (cached %v) to a request sent after version %d was installed",
						resp.ModelVersion, resp.Cached, floor)
					return
				}
				if resp.EA != eaOf(resp.ModelVersion) {
					failures.Add(1)
					t.Errorf("version %d answered EA %v (cached %v), want %v",
						resp.ModelVersion, resp.EA, resp.Cached, eaOf(resp.ModelVersion))
					return
				}
				// Loops with no think time would hold every CPU
				// themselves, and one descheduled for 50 ms would miss
				// the default deadline whatever the registry does.
				time.Sleep(5 * time.Millisecond)
			}
		}()
	}

	// Installs go through the engine, which scopes the cache to each new
	// version; this goroutine alone installs, so the version current
	// before an install is the one it displaces.
	var olds []*Version
	for i := 0; i < 10; i++ {
		olds = append(olds, e.registry.cur.Load())
		if _, err := e.Install(&stubModel{ea: eaOf(i + 2)}, lib); err != nil {
			t.Fatal(err)
		}
		installed.Store(int64(i + 2))
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	for _, old := range olds {
		select {
		case <-old.drained:
		case <-time.After(2 * time.Second):
			t.Fatalf("version %d never drained", old.info.Version)
		}
	}
	if failures.Load() > 0 {
		t.Fatalf("%d requests failed during hot reloads", failures.Load())
	}
}

func TestPredCacheRotationEvicts(t *testing.T) {
	reg := obs.NewRegistry()
	c := newPredCache(2, reg)
	k := func(i int32) cacheKey { return cacheKey{load: i} }
	c.put(0, k(1), core.Prediction{EA: 1})
	c.put(0, k(2), core.Prediction{EA: 2}) // hot full
	c.put(0, k(3), core.Prediction{EA: 3}) // rotates: {1,2} cold, {3} hot
	if _, ok := c.get(0, k(1)); !ok {
		t.Error("entry 1 should survive one rotation in the cold generation")
	}
	c.put(0, k(4), core.Prediction{EA: 4})
	c.put(0, k(5), core.Prediction{EA: 5}) // rotates again: {3,4} cold
	if _, ok := c.get(0, k(1)); ok {
		t.Error("entry 1 should be gone after two rotations")
	}
	if _, ok := c.get(0, k(3)); !ok {
		t.Error("entry 3 should survive in the cold generation")
	}
}

// TestPredCacheGrowsWithUse pins that the cache holds memory in
// proportion to its entries, not to its capacity: at the default
// capacity a cache holding 100 entries has allocated under 2 MB, where
// one map sized for the whole capacity takes about 13.6 MB.
func TestPredCacheGrowsWithUse(t *testing.T) {
	capacity := Config{}.defaults().CacheSize
	reg := obs.NewRegistry()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := newPredCache(capacity, reg)
	for i := range 100 {
		c.put(0, cacheKey{load: int32(i)}, core.Prediction{EA: float64(i)})
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2<<20 {
		t.Errorf("cache of capacity %d holding 100 entries allocated %.1f MB, want under 2 MB",
			capacity, float64(got)/(1<<20))
	}
	if _, ok := c.get(0, cacheKey{load: 99}); !ok {
		t.Error("entry 99 missing")
	}
}

// TestPredCacheEntryIsCompact pins the fast-path entry: a key of at
// most 24 bytes, and no pointer in the key or in either map's value, so
// the collector never scans the cache's maps. 60,000 distinct entries,
// under one generation's default capacity, must hold under 8 MB of live
// heap. On go1.24 they hold 4.7 MB; entries that kept a whole
// PredictResponse under a key carrying the service name, decoded afresh
// for each request, held 13.1 MB.
func TestPredCacheEntryIsCompact(t *testing.T) {
	if size := unsafe.Sizeof(cacheKey{}); size > 24 {
		t.Errorf("cache key is %d bytes, want at most 24", size)
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(cacheKey{}), reflect.TypeOf(0.0), reflect.TypeOf(core.Prediction{})} {
		if holdsPointer(typ) {
			t.Errorf("cache type %v holds a pointer", typ)
		}
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := newPredCache(Config{}.defaults().CacheSize, obs.NewRegistry())
	for i := range 60_000 {
		c.put(0, cacheKey{load: int32(i), service: int32(i % 3)}, core.Prediction{EA: float64(i)})
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if live := int64(after.HeapAlloc) - int64(before.HeapAlloc); live >= 8<<20 {
		t.Errorf("60,000 cache entries hold %.1f MB live, want under 8 MB", float64(live)/(1<<20))
	}
	if p, ok := c.get(0, cacheKey{load: 59_999, service: 59_999 % 3}); !ok || p.EA != 59_999 {
		t.Errorf("entry 59999 = %v, %v; want EA 59999", p, ok)
	}
}

// holdsPointer reports whether a value of type t holds anything the
// collector must scan.
func holdsPointer(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if holdsPointer(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Array:
		return t.Len() > 0 && holdsPointer(t.Elem())
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice, reflect.String,
		reflect.Interface, reflect.Chan, reflect.Func:
		return true
	default:
		return false
	}
}

func TestNoModelLoaded(t *testing.T) {
	e := NewEngine(Config{Obs: obs.NewRegistry()})
	defer e.Close()
	if _, serr := e.Predict(testRequest()); serr == nil || serr.Code != CodeNoModel {
		t.Fatalf("predict without a model: %v, want code %s", serr, CodeNoModel)
	}
}

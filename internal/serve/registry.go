package serve

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"stac/internal/core"
	"stac/internal/deepforest"
	"stac/internal/policy"
	"stac/internal/profile"
)

// BatchModel is what the serving layer needs from a trained model:
// single-row prediction (the core pipeline's EAModel contract) and the
// batched form the request batcher coalesces into. *deepforest.Model
// satisfies it; tests substitute stubs.
type BatchModel interface {
	Predict(features []float64) float64
	PredictBatch(features [][]float64) []float64
}

// ModelInfo describes one loaded model version.
type ModelInfo struct {
	Version   int       `json:"version"`
	ModelPath string    `json:"model_path,omitempty"`
	DataPath  string    `json:"data_path,omitempty"`
	LoadedAt  time.Time `json:"loaded_at"`
	Services  []string  `json:"services"`
	Rows      int       `json:"rows"`
}

// Version is one immutable, refcounted model version: the model itself,
// the profiling library it predicts through, per-service scenario
// templates (precomputed so the hot path never averages library rows),
// and the assembled full predictor for response-time requests.
type Version struct {
	info      ModelInfo
	model     BatchModel
	library   profile.Dataset
	builder   *core.InputBuilder
	pred      *core.Predictor
	templates map[string]core.Scenario

	// refs counts the registry's own reference (1 at install) plus one
	// per in-flight request. When a reload drops the registry reference
	// the version lives on until the last request releases it — drained,
	// not dropped.
	refs    atomic.Int64
	drained chan struct{}
}

// Template returns the scenario skeleton for a service, with calibrated
// service time, variability and layout features from the library.
func (v *Version) Template(service string) (core.Scenario, bool) {
	s, ok := v.templates[service]
	return s, ok
}

// acquire takes a reference; it fails only when the version is already
// fully drained (refs hit zero), which cannot happen while the version
// is still the registry's current pointer.
func (v *Version) acquire() bool {
	for {
		n := v.refs.Load()
		if n <= 0 {
			return false
		}
		if v.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// Release drops a reference taken by Registry.Acquire.
func (v *Version) Release() {
	if v.refs.Add(-1) == 0 {
		close(v.drained)
	}
}

// Registry holds the current model version and performs atomic hot
// reloads: readers acquire the current version lock-free; Load builds
// the replacement off to the side, swaps the pointer, and releases the
// registry's reference to the old version so it drains.
type Registry struct {
	mu      sync.Mutex // serialises loads
	cur     atomic.Pointer[Version]
	next    int
	servers int

	modelPath, dataPath string
}

// NewRegistry returns an empty registry. servers is the per-service
// parallelism the full predictor models (0 = the deployment default 2).
func NewRegistry(servers int) *Registry {
	if servers <= 0 {
		servers = 2
	}
	return &Registry{servers: servers, next: 1}
}

// Acquire returns the current version with a reference taken, or nil
// when no model has been loaded. Callers must Release exactly once.
func (r *Registry) Acquire() *Version {
	for {
		v := r.cur.Load()
		if v == nil {
			return nil
		}
		// A version that lost its last reference is never the current
		// pointer for long: the swap happens before the registry's
		// reference is dropped. Re-read and retry.
		if v.acquire() {
			return v
		}
	}
}

// Current returns the current version's info without taking a reference.
func (r *Registry) Current() (ModelInfo, bool) {
	v := r.cur.Load()
	if v == nil {
		return ModelInfo{}, false
	}
	return v.info, true
}

// Load reads a serialized deep-forest model and its profiling library
// from disk, assembles a new version, and atomically makes it current.
// The previous version (if any) is returned so callers can await its
// drain; it keeps serving its in-flight requests.
func (r *Registry) Load(modelPath, dataPath string) (ModelInfo, *Version, error) {
	f, err := os.Open(modelPath)
	if err != nil {
		return ModelInfo{}, nil, fmt.Errorf("serve: open model: %w", err)
	}
	model, err := deepforest.LoadModel(f)
	f.Close()
	if err != nil {
		return ModelInfo{}, nil, err
	}
	library, err := profile.LoadFile(dataPath)
	if err != nil {
		return ModelInfo{}, nil, err
	}
	r.mu.Lock()
	r.modelPath, r.dataPath = modelPath, dataPath
	r.mu.Unlock()
	return r.Install(model, library)
}

// Reload re-reads the paths the registry last loaded from.
func (r *Registry) Reload() (ModelInfo, *Version, error) {
	r.mu.Lock()
	modelPath, dataPath := r.modelPath, r.dataPath
	r.mu.Unlock()
	if modelPath == "" {
		return ModelInfo{}, nil, fmt.Errorf("serve: no model paths configured to reload")
	}
	return r.Load(modelPath, dataPath)
}

// widthModel is a model that knows its input width. Install checks it
// against the library's schema; the model files Load reads must satisfy
// it, or that check would silently stop applying to them.
type widthModel interface{ NumFeatures() int }

var _ widthModel = (*deepforest.Model)(nil)

// Install assembles a version from in-memory parts and makes it
// current. The expensive pieces (scenario templates, the full predictor
// with its fitted corrections) are built before the swap, so serving
// continues on the old version throughout.
func (r *Registry) Install(model BatchModel, library profile.Dataset) (ModelInfo, *Version, error) {
	if model == nil {
		return ModelInfo{}, nil, fmt.Errorf("serve: nil model")
	}
	if library.Len() == 0 {
		return ModelInfo{}, nil, fmt.Errorf("serve: empty profile library")
	}
	// A model trained on another width would read its features out of
	// place, or past the end of the builder's vectors.
	if m, ok := model.(widthModel); ok && m.NumFeatures() != profile.NumFeatures {
		return ModelInfo{}, nil, fmt.Errorf("serve: model takes %d features, the library's schema has %d",
			m.NumFeatures(), profile.NumFeatures)
	}
	builder, err := core.NewInputBuilder(library)
	if err != nil {
		return ModelInfo{}, nil, err
	}
	// One worker: a reload fits its corrections while live predicts wait
	// on their deadlines, so it must not take their cores.
	pred, err := core.NewPredictor(model, library, r.servers, 1)
	if err != nil {
		return ModelInfo{}, nil, err
	}
	services := map[string]bool{}
	for _, row := range library.Rows {
		services[row.Service] = true
	}
	templates := make(map[string]core.Scenario, len(services))
	names := make([]string, 0, len(services))
	for svc := range services {
		t, err := policy.ScenarioTemplate(library, svc, 0.5, 0.5)
		if err != nil {
			return ModelInfo{}, nil, err
		}
		t.Servers = r.servers
		templates[svc] = t
		names = append(names, svc)
	}
	sort.Strings(names)

	r.mu.Lock()
	defer r.mu.Unlock()
	v := &Version{
		info: ModelInfo{
			Version:   r.next,
			ModelPath: r.modelPath,
			DataPath:  r.dataPath,
			LoadedAt:  time.Now(),
			Services:  names,
			Rows:      library.Len(),
		},
		model:     model,
		library:   library,
		builder:   builder,
		pred:      pred,
		templates: templates,
		drained:   make(chan struct{}),
	}
	v.refs.Store(1)
	r.next++
	old := r.cur.Swap(v)
	if old != nil {
		old.Release() // drop the registry's reference; in-flight requests drain it
	}
	return v.info, old, nil
}

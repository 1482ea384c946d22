package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sync"
	"time"

	"stac/internal/surrogate"
	"stac/internal/workload"
)

// Server is the HTTP/JSON front end over an Engine. Routes:
//
//	POST /predict       one prediction (PredictRequest → PredictResponse)
//	POST /search        surrogate plan search for a collocated pair
//	POST /admin/reload  hot-reload the model from its configured paths
//	GET  /metrics       obs snapshot (counters, gauges, histograms)
//	GET  /healthz       liveness + current model version
//
// Errors are typed JSON: {"error": {"code", "message"}} with the
// matching HTTP status.
type Server struct {
	engine *Engine

	// The surrogate Searcher keeps a plain-map simulation cache, so
	// /search requests serialise; setup is also cached per pair config.
	searchMu  sync.Mutex
	searcher  *surrogate.Searcher
	searchCfg searchKey
}

type searchKey struct {
	kernelA, kernelB string
	load             float64
	accesses         int
	seed             uint64
}

// maxSearchAccesses bounds a /search body's miss-ratio trace length.
// A curve's build time and its Fenwick tree (8 B per access) grow with
// the length, and the build holds searchMu: at the bound one kernel's
// curve took 0.22 s on a 2-vCPU host.
const maxSearchAccesses = 1_000_000

// NewServer wraps an engine with the HTTP front end.
func NewServer(e *Engine) *Server { return &Server{engine: e} }

// Handler builds the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/predict", s.handlePredict)
	mux.HandleFunc("/search", s.handleSearch)
	mux.HandleFunc("/admin/reload", s.handleReload)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

// writeJSON encodes v before it sends the status, so a value that does
// not encode (encoding/json refuses NaN and ±Inf) is answered with a
// typed 500 rather than an empty 200.
func writeJSON(w http.ResponseWriter, status int, v any) {
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		writeError(w, errInternal(fmt.Errorf("encode response: %w", err)))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body.Bytes())
}

func writeError(w http.ResponseWriter, e *Error) {
	writeJSON(w, e.Status, map[string]*Error{"error": e})
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		writeError(w, &Error{Code: CodeBadRequest, Status: http.StatusMethodNotAllowed,
			Message: "use POST"})
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, errBadRequest("bad request body: "+err.Error()))
		return false
	}
	return true
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	var req PredictRequest
	if !decodeBody(w, r, &req) {
		return
	}
	resp, err := s.engine.Predict(req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// SearchRequest asks for a surrogate plan search over a collocated
// kernel pair. Kernels are named (workload.ByName); the search
// enumerates every CAT layout × timeout grid and returns the top-K.
type SearchRequest struct {
	KernelA  string  `json:"kernel_a"`
	KernelB  string  `json:"kernel_b"`
	Load     float64 `json:"load"`
	TopK     int     `json:"top_k,omitempty"`
	Accesses int     `json:"accesses,omitempty"`
	Seed     uint64  `json:"seed,omitempty"`
}

// SearchPlan is one ranked plan in a SearchResponse. A never-boost
// timeout, +Inf in surrogate.Plan, which JSON numbers cannot carry, is
// null.
type SearchPlan struct {
	Plan     string     `json:"plan"`
	PrivA    int        `json:"priv_a"`
	Shared   int        `json:"shared"`
	PrivB    int        `json:"priv_b"`
	TimeoutA *float64   `json:"timeout_a"`
	TimeoutB *float64   `json:"timeout_b"`
	Score    float64    `json:"score"`
	Speedup  [2]float64 `json:"speedup"`
}

// wireTimeout is a plan timeout as SearchPlan carries it: nil for never
// boost.
func wireTimeout(t float64) *float64 {
	if math.IsInf(t, 1) {
		return nil
	}
	return &t
}

// SearchResponse is the ranked head of the plan space.
type SearchResponse struct {
	Plans     []SearchPlan `json:"plans"`
	Total     int          `json:"total_plans"`
	SimRuns   int          `json:"sim_runs"`
	ElapsedMS float64      `json:"elapsed_ms"`
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req SearchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Load == 0 {
		req.Load = 0.9
	}
	// Only an absent (zero) top_k or accesses takes the default; search
	// refuses a negative one.
	if req.TopK == 0 {
		req.TopK = 5
	}
	if req.Accesses == 0 {
		req.Accesses = 20000
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	resp, err := s.search(req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) search(req SearchRequest) (SearchResponse, *Error) {
	ka, err := workload.ByName(req.KernelA)
	if err != nil {
		return SearchResponse{}, errBadRequest(err.Error())
	}
	kb, err := workload.ByName(req.KernelB)
	if err != nil {
		return SearchResponse{}, errBadRequest(err.Error())
	}
	if req.Load <= 0 || req.Load >= 1 {
		return SearchResponse{}, errBadRequest("load must be in (0,1)")
	}
	if req.TopK < 0 {
		return SearchResponse{}, errBadRequest(fmt.Sprintf("top_k must be non-negative, got %d", req.TopK))
	}
	if req.Accesses < 0 {
		return SearchResponse{}, errBadRequest(fmt.Sprintf("accesses must be non-negative, got %d", req.Accesses))
	}
	if req.Accesses > maxSearchAccesses {
		return SearchResponse{}, errBadRequest(fmt.Sprintf("accesses must be at most %d", maxSearchAccesses))
	}

	s.searchMu.Lock()
	defer s.searchMu.Unlock()
	key := searchKey{req.KernelA, req.KernelB, req.Load, req.Accesses, req.Seed}
	if s.searcher == nil || s.searchCfg != key {
		cfg := surrogate.Config{
			KernelA: ka, KernelB: kb,
			LoadA: req.Load, LoadB: req.Load,
			Accesses: req.Accesses, Seed: req.Seed,
			// Leave a core to the predicts: a sweep on every core
			// starves them past their deadlines.
			Workers: max(1, runtime.GOMAXPROCS(0)-1),
		}
		sr, err := surrogate.New(cfg)
		if err != nil {
			return SearchResponse{}, errBadRequest(err.Error())
		}
		s.searcher, s.searchCfg = sr, key
	}

	start := time.Now()
	plans := s.searcher.EnumeratePlans()
	ranked, err := s.searcher.Search(plans)
	if err != nil {
		return SearchResponse{}, errInternal(err)
	}
	k := req.TopK
	if k > len(ranked) {
		k = len(ranked)
	}
	out := SearchResponse{
		Total:     len(plans),
		SimRuns:   s.searcher.SimRuns(),
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1e3,
		Plans:     make([]SearchPlan, 0, k),
	}
	for _, ev := range ranked[:k] {
		out.Plans = append(out.Plans, SearchPlan{
			Plan:     ev.Plan.String(),
			PrivA:    ev.Plan.PrivA,
			Shared:   ev.Plan.Shared,
			PrivB:    ev.Plan.PrivB,
			TimeoutA: wireTimeout(ev.Plan.TimeoutA),
			TimeoutB: wireTimeout(ev.Plan.TimeoutB),
			Score:    ev.Score,
			Speedup:  ev.Speedup,
		})
	}
	return out, nil
}

// ReloadResponse reports the outcome of a hot reload.
type ReloadResponse struct {
	Model ModelInfo `json:"model"`
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, &Error{Code: CodeBadRequest, Status: http.StatusMethodNotAllowed,
			Message: "use POST"})
		return
	}
	info, err := s.engine.Reload()
	if err != nil {
		writeError(w, errInternal(fmt.Errorf("reload: %w", err)))
		return
	}
	writeJSON(w, http.StatusOK, ReloadResponse{Model: info})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = s.engine.cfg.Obs.Snapshot().WriteJSON(w)
}

// HealthResponse is the /healthz body.
type HealthResponse struct {
	Status string     `json:"status"`
	Model  *ModelInfo `json:"model,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := HealthResponse{Status: "ok"}
	if info, ok := s.engine.registry.Current(); ok {
		h.Model = &info
	} else {
		h.Status = "no_model"
	}
	writeJSON(w, http.StatusOK, h)
}

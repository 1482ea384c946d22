package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"stac/internal/obs"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	e := newTestEngine(t, &stubModel{ea: 0.6}, Config{})
	s := NewServer(e)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func decodeError(t *testing.T, resp *http.Response) *Error {
	t.Helper()
	var body struct {
		Error *Error `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("error body did not decode: %v", err)
	}
	if body.Error == nil {
		t.Fatal("error response carries no error object")
	}
	return body.Error
}

func TestHTTPPredict(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/predict", "application/json",
		strings.NewReader(`{"service":"redis","load":0.5,"timeout":1,"partner_load":0.4,"partner_timeout":2}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var pr PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if pr.EA != 0.6 {
		t.Errorf("EA = %v, want the stub's 0.6", pr.EA)
	}
	if pr.ModelVersion != 1 {
		t.Errorf("model version = %d, want 1", pr.ModelVersion)
	}
}

func TestHTTPPredictErrors(t *testing.T) {
	_, ts := newTestServer(t)

	resp, err := http.Post(ts.URL+"/predict", "application/json", strings.NewReader(`{not json`))
	if err != nil {
		t.Fatal(err)
	}
	e := decodeError(t, resp)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || e.Code != CodeBadRequest {
		t.Errorf("malformed body: status %d code %s, want 400 %s", resp.StatusCode, e.Code, CodeBadRequest)
	}

	resp, err = http.Post(ts.URL+"/predict", "application/json",
		strings.NewReader(`{"service":"nosuch","load":0.5}`))
	if err != nil {
		t.Fatal(err)
	}
	e = decodeError(t, resp)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || e.Code != CodeBadRequest {
		t.Errorf("unknown service: status %d code %s, want 400 %s", resp.StatusCode, e.Code, CodeBadRequest)
	}

	resp, err = http.Get(ts.URL + "/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /predict: status %d, want 405", resp.StatusCode)
	}
}

func TestHTTPHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "ok" || h.Model == nil || h.Model.Version != 1 {
		t.Errorf("healthz = %+v, want ok with model v1", h)
	}
	if len(h.Model.Services) == 0 {
		t.Error("healthz reports no services")
	}

	// Generate one prediction so the serving counters are non-zero.
	resp, err = http.Post(ts.URL+"/predict", "application/json",
		strings.NewReader(`{"service":"redis","load":0.5,"timeout":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters []struct {
			Name  string `json:"name"`
			Value uint64 `json:"value"`
		} `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	found := map[string]uint64{}
	for _, c := range snap.Counters {
		found[c.Name] = c.Value
	}
	if found["serve/requests"] == 0 {
		t.Errorf("metrics: serve/requests = %d, want > 0 (have %v)", found["serve/requests"], found)
	}
	if found["serve/predictions"] == 0 {
		t.Error("metrics: serve/predictions is zero after a successful predict")
	}
}

func TestHTTPHealthzNoModel(t *testing.T) {
	e := NewEngine(Config{Obs: obs.NewRegistry()})
	t.Cleanup(e.Close)
	ts := httptest.NewServer(NewServer(e).Handler())
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "no_model" || h.Model != nil {
		t.Errorf("healthz = %+v, want no_model without a model object", h)
	}
}

func TestHTTPReloadWithoutPathsFails(t *testing.T) {
	// The test engine was installed in-memory: there are no disk paths
	// to re-read, and the handler must say so rather than 200.
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/admin/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("reload without paths: status %d, want 500", resp.StatusCode)
	}
	if e := decodeError(t, resp); e.Code != CodeInternal {
		t.Errorf("reload error code = %s, want %s", e.Code, CodeInternal)
	}
}

// TestHTTPSearchRejectsBadBodies: /search refuses a field it does not
// take (an old client's "sampled" rate) and a trace longer than
// maxSearchAccesses with a 400 naming the field, at once and before it
// builds a searcher.
func TestHTTPSearchRejectsBadBodies(t *testing.T) {
	for _, tc := range []struct{ body, field string }{
		{`{"kernel_a":"redis","kernel_b":"social","sampled":0.05}`, "sampled"},
		{`{"kernel_a":"redis","kernel_b":"social","accesses":2000000000}`, "accesses"},
		{`{"kernel_a":"redis","kernel_b":"social","top_k":-3}`, "top_k"},
		{`{"kernel_a":"redis","kernel_b":"social","accesses":-5}`, "accesses"},
	} {
		s, ts := newTestServer(t)
		start := time.Now()
		resp, err := http.Post(ts.URL+"/search", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		e := decodeError(t, resp)
		resp.Body.Close()
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Errorf("%s: refused after %v, want within 1 s", tc.field, elapsed)
		}
		if resp.StatusCode != http.StatusBadRequest || e.Code != CodeBadRequest || !strings.Contains(e.Message, tc.field) {
			t.Errorf("%s: status %d code %s message %q, want 400 %s naming the field",
				tc.field, resp.StatusCode, e.Code, e.Message, CodeBadRequest)
		}
		s.searchMu.Lock()
		built := s.searcher != nil
		s.searchMu.Unlock()
		if built {
			t.Errorf("%s: a searcher was built", tc.field)
		}
	}
}

// TestHTTPSearchEncodesNeverBoost posts a search whose top_k reaches
// the fully-private plans, whose never-boost timeouts are +Inf in
// surrogate.Plan. encoding/json refuses +Inf, and writeJSON used to
// send the 200 first, so this body got a 200 with an empty body. Every
// plan must now decode, the 19 fully-private ones with null timeouts.
func TestHTTPSearchEncodesNeverBoost(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/search", "application/json",
		strings.NewReader(`{"kernel_a":"redis","kernel_b":"social","top_k":4294}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var sr SearchResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatalf("body does not decode: %v", err)
	}
	if len(sr.Plans) != 4294 {
		t.Fatalf("decoded %d plans, want 4294", len(sr.Plans))
	}
	never := 0
	for _, p := range sr.Plans {
		if (p.TimeoutA == nil) != (p.TimeoutB == nil) || (p.TimeoutA == nil) != (p.Shared == 0) {
			t.Fatalf("plan %s: timeouts %v, %v with %d shared ways; want null timeouts exactly on fully-private plans",
				p.Plan, p.TimeoutA, p.TimeoutB, p.Shared)
		}
		if p.TimeoutA == nil {
			never++
		}
	}
	if never != 19 {
		t.Errorf("%d plans with null timeouts, want 19", never)
	}
}

// TestHTTPSearchRejectsLoadWithoutArrivals: at load 1e-6 both services'
// arrival rates round to zero on the surrogate's simulation grid, which
// made every score NaN and the answer an empty 200. The searcher now
// refuses the load, and /search answers 400.
func TestHTTPSearchRejectsLoadWithoutArrivals(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/search", "application/json",
		strings.NewReader(`{"kernel_a":"redis","kernel_b":"social","load":1e-6}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	e := decodeError(t, resp)
	if resp.StatusCode != http.StatusBadRequest || e.Code != CodeBadRequest || !strings.Contains(e.Message, "arrival rate") {
		t.Errorf("status %d code %s message %q, want 400 %s naming the arrival rate",
			resp.StatusCode, e.Code, e.Message, CodeBadRequest)
	}
}

// TestWriteJSONRefusesUnencodable: a value encoding/json refuses is
// answered with a typed 500, not the status the handler asked for.
func TestWriteJSONRefusesUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"score": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	e := decodeError(t, rec.Result())
	if e.Code != CodeInternal {
		t.Errorf("error code = %s, want %s", e.Code, CodeInternal)
	}
}

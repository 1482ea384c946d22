package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

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

func postSearch(t *testing.T, url, body string) SearchResponse {
	t.Helper()
	resp, err := http.Post(url+"/search", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search %s: status %d", body, resp.StatusCode)
	}
	var sr SearchResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	return sr
}

// TestHTTPSearchKeysOnCurveSource is a regression test: the server
// cached its searcher without the sampling rate, so a sampled search
// after an exact one for the same pair returned the exact ranking.
func TestHTTPSearchKeysOnCurveSource(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three full surrogate sweeps")
	}
	const exact = `{"kernel_a":"redis","kernel_b":"social","top_k":3}`
	const sampled = `{"kernel_a":"redis","kernel_b":"social","top_k":3,"sampled":0.05}`
	_, warm := newTestServer(t)
	postSearch(t, warm.URL, exact)
	got := postSearch(t, warm.URL, sampled)
	_, fresh := newTestServer(t)
	want := postSearch(t, fresh.URL, sampled)
	if !reflect.DeepEqual(got.Plans, want.Plans) {
		t.Errorf("sampled search after an exact one:\n got  %+v\n want %+v", got.Plans, want.Plans)
	}
}

package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"stac/internal/core"
	"stac/internal/deepforest"
	"stac/internal/obs"
	"stac/internal/stats"
)

// FuzzPredictBody posts arbitrary bodies to /predict on an engine that
// serves a small deep forest, trained once before fuzzing starts. No
// body may panic or hang the handler. Each answer is either a 200 whose
// body decodes to a PredictResponse with EA in the clamp range
// [0.02, 1.5], or a JSON error object with a known code and a 4xx or 5xx
// status. A body answered 200 is posted again: unless it sets no_cache,
// the repeat is a cache hit that rebuilds the same answer.
func FuzzPredictBody(f *testing.F) {
	lib := syntheticLibrary(f)
	for i := range lib.Rows {
		lib.Rows[i].EA = 0.2 + 0.2*float64(i) // targets to split on
	}
	model, err := core.TrainDeepForestEA(lib, deepforest.Config{}, stats.NewRNG(1))
	if err != nil {
		f.Fatal(err)
	}
	e := NewEngine(Config{Obs: obs.NewRegistry()})
	f.Cleanup(e.Close)
	if _, err := e.Install(model, lib); err != nil {
		f.Fatal(err)
	}
	handler := NewServer(e).Handler()

	valid := `{"service":"redis","load":0.5,"timeout":1,"partner_load":0.5,"partner_timeout":1}`
	f.Add([]byte(valid))
	f.Add([]byte(valid[:len(valid)/2]))
	f.Add([]byte(`{"service":"redis","load":0.5,"timeout":1,"topk":3}`))
	f.Add([]byte(`{"service":"bfs","load":0.999999999,"timeout":1e308,"partner_load":1e-308,"partner_timeout":1e308,"private_ways":9223372036854775807,"deadline_ms":1e308}`))
	f.Add([]byte(`{"service":"redis","load":0.5,"timeout":1,"partner_load":0.5,"partner_timeout":1,"private_ways":-3,"shared_ways":-1}`))
	f.Add([]byte(`{"service":"redis","load":0.7,"timeout":2,"partner_load":0.3,"partner_timeout":0,"full":true}`))
	f.Add([]byte(`{"service":"bfs","load":0.5,"timeout":1,"partner_load":0.5,"partner_timeout":1,"private_ways":64,"shared_ways":4294967298}`))

	codes := map[string]bool{
		CodeQueueFull: true, CodeRateLimited: true, CodeDeadlineExceeded: true, CodeDraining: true,
		CodeBadRequest: true, CodeNoModel: true, CodeInternal: true,
	}
	post := func(t *testing.T, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		done := make(chan struct{})
		go func() {
			defer close(done)
			handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body)))
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("no answer within 10 s to %q", body)
		}
		return rec
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := post(t, body)
		if rec.Code == http.StatusOK {
			var resp PredictResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 body %q does not decode: %v", rec.Body.Bytes(), err)
			}
			if !(resp.EA >= 0.02 && resp.EA <= 1.5) {
				t.Fatalf("EA %v outside [0.02, 1.5] for %q", resp.EA, body)
			}
			// The handler decoded the body's first JSON value, as this does.
			var req PredictRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				t.Fatalf("body %q answered 200 does not decode: %v", body, err)
			}
			if req.NoCache {
				return
			}
			again := post(t, body)
			var hit PredictResponse
			if err := json.Unmarshal(again.Body.Bytes(), &hit); err != nil || again.Code != http.StatusOK {
				t.Fatalf("repeat of %q: status %d, body %q (%v); want a 200", body, again.Code, again.Body.Bytes(), err)
			}
			if !hit.Cached || hit.EA != resp.EA || hit.Service != resp.Service ||
				hit.ModelVersion != resp.ModelVersion || !reflect.DeepEqual(hit.Prediction, resp.Prediction) {
				t.Fatalf("repeat of %q answered %+v (prediction %+v) after %+v (prediction %+v); want the same answer, cached",
					body, hit, hit.Prediction, resp, resp.Prediction)
			}
			return
		}
		var errBody struct {
			Error *Error `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &errBody); err != nil || errBody.Error == nil {
			t.Fatalf("status %d with body %q is not a JSON error object (%v)", rec.Code, rec.Body.Bytes(), err)
		}
		if !codes[errBody.Error.Code] || rec.Code < 400 || rec.Code >= 600 {
			t.Fatalf("error code %q with status %d for %q", errBody.Error.Code, rec.Code, body)
		}
	})
}

// FuzzSearchBody posts arbitrary bodies to /search on a Server. No body
// may panic or hang the handler: each answer comes within 60 s, enough
// for a cold search at the largest trace /search takes, and is either a
// 200 whose body decodes to a SearchResponse with finite scores and
// speedups, or a JSON error object with a known code and a 4xx or 5xx
// status. The seeds are a default search, one whose top_k reaches the
// never-boost plans and one at a load whose arrivals round to zero, all
// on short traces.
func FuzzSearchBody(f *testing.F) {
	e := NewEngine(Config{Obs: obs.NewRegistry()})
	f.Cleanup(e.Close)
	handler := NewServer(e).Handler()

	f.Add([]byte(`{"kernel_a":"redis","kernel_b":"social","accesses":2000}`))
	f.Add([]byte(`{"kernel_a":"redis","kernel_b":"social","top_k":4294,"accesses":2000}`))
	f.Add([]byte(`{"kernel_a":"redis","kernel_b":"social","load":1e-6,"accesses":2000}`))

	codes := map[string]bool{CodeBadRequest: true, CodeInternal: true}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		done := make(chan struct{})
		go func() {
			defer close(done)
			handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(body)))
		}()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatalf("no answer within 60 s to %q", body)
		}

		if rec.Code == http.StatusOK {
			var resp SearchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 body %q does not decode: %v", rec.Body.Bytes(), err)
			}
			if len(resp.Plans) > resp.Total {
				t.Fatalf("%d plans of %d for %q", len(resp.Plans), resp.Total, body)
			}
			for _, p := range resp.Plans {
				if math.IsNaN(p.Score) || math.IsInf(p.Score, 0) ||
					math.IsNaN(p.Speedup[0]) || math.IsInf(p.Speedup[0], 0) ||
					math.IsNaN(p.Speedup[1]) || math.IsInf(p.Speedup[1], 0) {
					t.Fatalf("plan %s scores %v with speedups %v for %q", p.Plan, p.Score, p.Speedup, body)
				}
			}
			return
		}
		var errBody struct {
			Error *Error `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &errBody); err != nil || errBody.Error == nil {
			t.Fatalf("status %d with body %q is not a JSON error object (%v)", rec.Code, rec.Body.Bytes(), err)
		}
		if !codes[errBody.Error.Code] || rec.Code < 400 || rec.Code >= 600 {
			t.Fatalf("error code %q with status %d for %q", errBody.Error.Code, rec.Code, body)
		}
	})
}

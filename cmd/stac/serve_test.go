package main

import (
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"stac/internal/serve"
	"stac/internal/serve/loadgen"
)

// serveSmokeMinQPS is the loadtest floor. Over loopback HTTP the cached
// path runs far above it; it gates "the serving stack works under load",
// not peak throughput, so slow shared runners pass.
const serveSmokeMinQPS = 1000

// getJSON decodes the JSON body of a GET (body == "") or POST request
// into v and fails the test on any non-200 answer.
func getJSON(t *testing.T, url, body string, v any) {
	t.Helper()
	var resp *http.Response
	var err error
	if body == "" {
		resp, err = http.Get(url)
	} else {
		resp, err = http.Post(url, "application/json", strings.NewReader(body))
	}
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("%s: %v", url, err)
	}
}

// TestServeSmoke runs the serving stack end to end on a loopback port:
// it profiles and trains a tiny model with the shipped commands, serves
// it as stac serve does, and checks a prediction, a hot reload, the
// metrics and a short HTTP loadtest against a QPS floor. It skips under
// -short; CI's full test step runs it.
func TestServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles, trains, serves and load-tests a model")
	}
	dir := t.TempDir()
	profilePath := filepath.Join(dir, "profile.json.gz")
	modelPath := filepath.Join(dir, "model.gob")
	if err := cmdProfile([]string{"-a", "redis", "-b", "bfs", "-points", "6", "-queries", "30", "-out", profilePath}); err != nil {
		t.Fatal(err)
	}
	if err := cmdTrain([]string{"-in", profilePath, "-model", modelPath}); err != nil {
		t.Fatal(err)
	}

	engine, _, err := serveEngine([]string{"-model", modelPath, "-data", profilePath})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		engine.Close()
		t.Fatal(err)
	}
	sigs := make(chan os.Signal, 1)
	served := make(chan error, 1)
	go func() { served <- serveUntilSignal(engine, ln, sigs) }()
	defer func() {
		sigs <- syscall.SIGTERM
		select {
		case err := <-served:
			if err != nil {
				t.Errorf("serve: %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Error("server did not drain within 15 s of SIGTERM")
		}
	}()
	base := "http://" + ln.Addr().String()

	var pred serve.PredictResponse
	getJSON(t, base+"/predict",
		`{"service":"redis","load":0.5,"timeout":1,"partner_load":0.5,"partner_timeout":1}`, &pred)
	if pred.ModelVersion != 1 || pred.EA < 0.02 || pred.EA > 1.5 {
		t.Errorf("predict = %+v, want model version 1 and EA in [0.02, 1.5]", pred)
	}

	var reload serve.ReloadResponse
	getJSON(t, base+"/admin/reload", "{}", &reload)
	if reload.Model.Version != 2 {
		t.Errorf("reload = %+v, want model version 2", reload)
	}
	var health serve.HealthResponse
	getJSON(t, base+"/healthz", "", &health)
	if health.Status != "ok" || health.Model == nil || health.Model.Version != 2 {
		t.Errorf("healthz = %+v, want ok with model version 2", health)
	}

	var snap struct {
		Counters []struct {
			Name string `json:"name"`
		} `json:"counters"`
	}
	getJSON(t, base+"/metrics", "", &snap)
	names := map[string]bool{}
	for _, c := range snap.Counters {
		names[c.Name] = true
	}
	for _, want := range []string{"serve/requests", "serve/predictions", "serve/model/reloads"} {
		if !names[want] {
			t.Errorf("metrics lack counter %s", want)
		}
	}

	out := filepath.Join(dir, "loadtest.json")
	if err := cmdLoadtest([]string{"-addr", base, "-duration", "3s", "-warmup", "1s",
		"-workers", "8", "-json", out}); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var res loadgen.Result
	if err := json.Unmarshal(buf, &res); err != nil {
		t.Fatal(err)
	}
	t.Logf("loadtest: %.0f predictions/s, p50 %.3f ms, p99 %.3f ms, cache hit %.1f%%",
		res.QPS, res.P50MS, res.P99MS, 100*res.CacheHitRatio)
	if res.QPS < serveSmokeMinQPS {
		t.Errorf("loadtest sustained %.0f predictions/s, floor %d", res.QPS, serveSmokeMinQPS)
	}
	if len(res.Errors) > 0 {
		t.Errorf("loadtest errors: %v", res.Errors)
	}
}

package serve

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stac/internal/core"
	"stac/internal/counters"
	"stac/internal/deepforest"
	"stac/internal/obs"
	"stac/internal/profile"
	"stac/internal/stats"
)

// The gob layouts of a saved deep-forest model, mirrored field by field
// so a test can corrupt one tree inside an otherwise valid file.
type (
	modelFile struct {
		Version  int
		Cfg      deepforest.Config
		Features int
		Grains   []grainFile
		Cascade  [][][]byte
	}
	grainFile struct {
		Win       deepforest.WindowConfig
		WR, WC    int
		Positions [][2]int
		Forest    []byte
	}
	forestFile struct{ Trees [][]byte }
	treeFile   struct {
		Feature     []int32
		Thresh      []float64
		Left, Right []int32
		Value, Gain []float64
	}
)

func gobEncode(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func gobDecode(t *testing.T, data []byte, v any) {
	t.Helper()
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// cyclicModel rewrites the first split of the first level-0 cascade
// tree that has one so that its left child points back at itself:
// walking that tree would never reach a leaf.
func cyclicModel(t *testing.T, valid []byte) []byte {
	t.Helper()
	var mf modelFile
	gobDecode(t, valid, &mf)
	for f, fb := range mf.Cascade[0] {
		var ff forestFile
		gobDecode(t, fb, &ff)
		for k, tb := range ff.Trees {
			var tf treeFile
			gobDecode(t, tb, &tf)
			for i, feat := range tf.Feature {
				if feat < 0 {
					continue
				}
				tf.Left[i] = int32(i)
				ff.Trees[k] = gobEncode(t, tf)
				mf.Cascade[0][f] = gobEncode(t, ff)
				return gobEncode(t, mf)
			}
		}
	}
	t.Fatal("no level-0 cascade tree has a split to corrupt")
	return nil
}

// TestEngineReloadRejectsMalformedModel fault-injects hot reloads: a
// truncated file, a file whose tree has a cycle and a file of an unknown
// version each fail with *deepforest.FormatError, move
// serve/model/reload_errors, and leave version 1 answering.
func TestEngineReloadRejectsMalformedModel(t *testing.T) {
	lib := syntheticLibrary(t)
	for i := range lib.Rows {
		lib.Rows[i].EA = 0.2 + 0.2*float64(i) // targets to split on
	}
	model, err := core.TrainDeepForestEA(lib, deepforest.Config{}, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	var valid bytes.Buffer
	if err := model.Save(&valid); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	modelPath, dataPath := filepath.Join(dir, "model.gob"), filepath.Join(dir, "profile.json.gz")
	if err := os.WriteFile(modelPath, valid.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := lib.SaveFile(dataPath); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	e := NewEngine(Config{Obs: reg, CacheSize: -1})
	defer e.Close()
	if _, err := e.LoadModel(modelPath, dataPath); err != nil {
		t.Fatal(err)
	}
	var mf modelFile
	gobDecode(t, valid.Bytes(), &mf)
	mf.Version = 99

	cases := []struct {
		name string
		data []byte
	}{
		{"truncated", valid.Bytes()[:valid.Len()/2]},
		{"cyclic", cyclicModel(t, valid.Bytes())},
		{"wrong-version", gobEncode(t, mf)},
	}
	for i, c := range cases {
		if err := os.WriteFile(modelPath, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := e.Reload()
		var fe *deepforest.FormatError
		if !errors.As(err, &fe) {
			t.Errorf("%s: reload error %v, want a *deepforest.FormatError", c.name, err)
		}
		if got := reg.Counter("serve/model/reload_errors").Load(); got != uint64(i+1) {
			t.Errorf("%s: reload_errors = %d, want %d", c.name, got, i+1)
		}
		resp, serr := e.Predict(testRequest())
		if serr != nil || resp.ModelVersion != 1 {
			t.Errorf("%s: after the failed reload, predict = %+v, %v; want version 1 answering", c.name, resp, serr)
		}
	}

	if err := os.WriteFile(modelPath, valid.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if info, err := e.Reload(); err != nil || info.Version != 2 {
		t.Fatalf("reload of the intact file: %+v, %v; want version 2", info, err)
	}
}

// TestEngineRejectsModelOfWrongWidth installs, then hot-reloads, a real
// deep forest trained on a feature vector whose matrix has half the
// profile's queries. Both fail with the width error and version 1 keeps
// answering.
func TestEngineRejectsModelOfWrongWidth(t *testing.T) {
	lib := syntheticLibrary(t)
	for i := range lib.Rows {
		lib.Rows[i].EA = 0.2 + 0.2*float64(i) // targets to split on
	}
	half := deepforest.MatrixSpec{Offset: profile.MatrixOffset, Rows: counters.NumCounters, Cols: profile.QueriesPerRow / 2}
	narrowWidth := half.Offset + half.Rows*half.Cols
	narrow := make([][]float64, len(lib.Rows))
	for i, r := range lib.Rows {
		narrow[i] = r.Features[:narrowWidth]
	}
	good, err := core.TrainDeepForestEA(lib, deepforest.Config{}, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	bad, err := deepforest.Train(narrow, lib.Targets(), deepforest.FastConfig(half), stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	save := func(m *deepforest.Model, path string) {
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	modelPath, dataPath := filepath.Join(dir, "model.gob"), filepath.Join(dir, "profile.json.gz")
	save(good, modelPath)
	if err := lib.SaveFile(dataPath); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Config{Obs: obs.NewRegistry(), CacheSize: -1})
	defer e.Close()
	if _, err := e.LoadModel(modelPath, dataPath); err != nil {
		t.Fatal(err)
	}

	want := fmt.Sprintf("model takes %d features, the library's schema has %d",
		narrowWidth, profile.NumFeatures)
	check := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want %q", what, err, want)
		}
		resp, serr := e.Predict(testRequest())
		if serr != nil || resp.ModelVersion != 1 {
			t.Errorf("%s: afterwards predict = %+v, %v; want version 1 answering", what, resp, serr)
		}
	}
	_, err = e.Install(bad, lib)
	check("install", err)
	save(bad, modelPath)
	_, err = e.Reload()
	check("reload", err)
}

// TestRegistryPredictorRunsOnOneWorker pins the worker bound Install
// gives every version's predictor. A reload fits its corrections while
// live predicts wait on their deadlines, so it must not take their
// cores; a bound of 0 would mean all of them.
func TestRegistryPredictorRunsOnOneWorker(t *testing.T) {
	lib := syntheticLibrary(t)
	m, err := core.TrainDeepForestEA(lib, deepforest.Config{}, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	modelPath, dataPath := filepath.Join(dir, "model.gob"), filepath.Join(dir, "profile.json.gz")
	if err := os.WriteFile(modelPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := lib.SaveFile(dataPath); err != nil {
		t.Fatal(err)
	}
	r := NewRegistry()
	for _, step := range []struct {
		name string
		do   func() (ModelInfo, *Version, error)
	}{
		{"install", func() (ModelInfo, *Version, error) { return r.Install(m, lib) }},
		{"load", func() (ModelInfo, *Version, error) { return r.Load(modelPath, dataPath) }},
		{"reload", r.Reload},
	} {
		if _, _, err := step.do(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		v := r.Acquire()
		if w := v.pred.Workers(); w != 1 {
			t.Errorf("%s: version %d predicts on %d workers, want 1", step.name, v.info.Version, w)
		}
		v.Release()
	}
}

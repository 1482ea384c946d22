package serve

import (
	"bytes"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"stac/internal/core"
	"stac/internal/deepforest"
	"stac/internal/obs"
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

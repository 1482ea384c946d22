package profile

import (
	"bytes"
	"compress/gzip"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func tinyDataset() Dataset {
	row := Row{
		Features:   make([]float64, NumFeatures),
		EA:         0.6,
		RespMean:   1e-4,
		RespP95:    3e-4,
		ExpService: 5e-5,
		STMean:     6e-5,
		STCV:       0.4,
		Service:    "redis",
		CondID:     3,
	}
	row.Features[0] = 0.9
	row.Features[MatrixOffset] = 42
	return Dataset{Schema: DefaultSchema(), Rows: []Row{row}}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	ds := tinyDataset()
	var buf bytes.Buffer
	if err := ds.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Fatalf("loaded %d rows", got.Len())
	}
	r := got.Rows[0]
	orig := ds.Rows[0]
	if r.EA != orig.EA || r.Service != orig.Service || r.CondID != orig.CondID {
		t.Fatal("row metadata lost")
	}
	if r.Features[0] != 0.9 || r.Features[MatrixOffset] != 42 {
		t.Fatal("features lost")
	}
	if !slices.Equal(got.Schema.CounterOrder, ds.Schema.CounterOrder) {
		t.Fatal("schema lost")
	}
}

func TestSaveLoadFile(t *testing.T) {
	ds := tinyDataset()
	path := filepath.Join(t.TempDir(), "ds.json.gz")
	if err := ds.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != ds.Len() {
		t.Fatal("file round trip lost rows")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not gzip"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestLoadRejectsShortRows(t *testing.T) {
	ds := tinyDataset()
	ds.Rows[0].Features = ds.Rows[0].Features[:5]
	var buf bytes.Buffer
	if err := ds.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil {
		t.Fatal("short feature vector accepted")
	}
}

// wideRowFile is a saved dataset whose row has one feature more than
// NumFeatures. No code writes such a row, and a model trained on it
// cannot be fed: when the schema could list a ninth static feature, a
// dataset of that width loaded, and serving a model trained on it
// panicked in the model's input fill.
func wideRowFile(tb testing.TB) []byte {
	ds := tinyDataset()
	ds.Rows[0].Features = make([]float64, NumFeatures+1)
	var buf bytes.Buffer
	if err := ds.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func TestLoadRejectsUnwrittenFeatures(t *testing.T) {
	if _, err := Load(bytes.NewReader(wideRowFile(t))); err == nil {
		t.Fatal("dataset with a row one feature too wide accepted")
	}
}

// TestLoadRejectsVersion1 feeds Load a version-1 envelope, whose schema
// carried the static and dynamic names and QueriesPerRow. Version 2
// fixed those, and no version-1 reader is kept.
func TestLoadRejectsVersion1(t *testing.T) {
	var buf bytes.Buffer
	w := gzip.NewWriter(&buf)
	w.Write([]byte(`{"version":1,"schema":{"Static":["load"],"Dynamic":[],"QueriesPerRow":20,"CounterOrder":[]},"rows":[]}`))
	w.Close()
	_, err := Load(&buf)
	if err == nil || !strings.Contains(err.Error(), "unsupported dataset version 1") {
		t.Fatalf("version-1 dataset: error %v, want unsupported dataset version 1", err)
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile("/nonexistent/nope.gz"); err == nil {
		t.Fatal("missing file accepted")
	}
}

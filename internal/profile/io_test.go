package profile

import (
	"bytes"
	"path/filepath"
	"testing"
)

func tinyDataset() Dataset {
	schema := DefaultSchema()
	row := Row{
		Features:   make([]float64, schema.NumFeatures()),
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
	row.Features[schema.MatrixOffset()] = 42
	return Dataset{Schema: schema, Rows: []Row{row}}
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
	if r.Features[0] != 0.9 || r.Features[ds.Schema.MatrixOffset()] != 42 {
		t.Fatal("features lost")
	}
	if got.Schema.NumFeatures() != ds.Schema.NumFeatures() {
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

// nineStaticFile is a saved dataset whose schema lists a ninth static
// feature, with a row of that schema's 592 features. The code writes
// eight static features, so a model trained on it cannot be fed: serving
// such a model with this dataset panicked in the model's input fill.
func nineStaticFile(tb testing.TB) []byte {
	ds := tinyDataset()
	ds.Schema.Static = append(ds.Schema.Static, "ninth")
	ds.Rows[0].Features = make([]float64, ds.Schema.NumFeatures())
	var buf bytes.Buffer
	if err := ds.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func TestLoadRejectsUnwrittenFeatures(t *testing.T) {
	if _, err := Load(bytes.NewReader(nineStaticFile(t))); err == nil {
		t.Fatal("dataset with a ninth static feature accepted")
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile("/nonexistent/nope.gz"); err == nil {
		t.Fatal("missing file accepted")
	}
}

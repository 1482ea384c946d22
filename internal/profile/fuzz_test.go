package profile

import (
	"bytes"
	"compress/gzip"
	"io"
	"reflect"
	"testing"
)

// FuzzLoadDataset feeds arbitrary datasets to Load. Most inputs are the
// JSON envelope, gzipped here before Load sees it, so mutations reach
// the schema and row-width checks instead of breaking in the gzip
// layer; inputs marked compressed go to Load as they are, keeping the
// gzip path covered. The seeds are a small saved dataset, as JSON and
// as Save wrote it, and the JSON of one whose row is one feature wider
// than NumFeatures. Load must not panic or hang. An accepted dataset
// must have a schema that passes Validate and rows of NumFeatures
// features, and must survive Save∘Load unchanged.
func FuzzLoadDataset(f *testing.F) {
	var buf bytes.Buffer
	if err := tinyDataset().Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(gunzip(f, buf.Bytes()), false)
	f.Add(gunzip(f, wideRowFile(f)), false)
	f.Add(buf.Bytes(), true)

	f.Fuzz(func(t *testing.T, data []byte, compressed bool) {
		if !compressed {
			var gz bytes.Buffer
			w, _ := gzip.NewWriterLevel(&gz, gzip.NoCompression)
			w.Write(data)
			w.Close()
			data = gz.Bytes()
		}
		ds, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := ds.Schema.Validate(); err != nil {
			t.Fatalf("loaded schema fails validation: %v", err)
		}
		for i, r := range ds.Rows {
			if len(r.Features) != NumFeatures {
				t.Fatalf("row %d has %d features, want %d", i, len(r.Features), NumFeatures)
			}
		}
		var saved bytes.Buffer
		if err := ds.Save(&saved); err != nil {
			t.Fatal(err)
		}
		back, err := Load(&saved)
		if err != nil {
			t.Fatalf("saved dataset rejected: %v", err)
		}
		if !reflect.DeepEqual(back, ds) {
			t.Fatal("Save∘Load changed the dataset")
		}
	})
}

// gunzip returns the JSON inside a saved dataset.
func gunzip(tb testing.TB, b []byte) []byte {
	tb.Helper()
	r, err := gzip.NewReader(bytes.NewReader(b))
	if err != nil {
		tb.Fatal(err)
	}
	out, err := io.ReadAll(r)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

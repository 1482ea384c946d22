package profile

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// datasetFile is the on-disk representation: a versioned envelope so the
// format can evolve.
type datasetFile struct {
	Version int    `json:"version"`
	Schema  Schema `json:"schema"`
	Rows    []Row  `json:"rows"`
}

// datasetVersion 2 fixed the row layout: the schema holds only the
// counter order, and every row has NumFeatures features.
const datasetVersion = 2

// Save writes the dataset as gzip-compressed JSON.
func (d Dataset) Save(w io.Writer) error {
	gz := gzip.NewWriter(w)
	enc := json.NewEncoder(gz)
	if err := enc.Encode(datasetFile{Version: datasetVersion, Schema: d.Schema, Rows: d.Rows}); err != nil {
		gz.Close()
		return fmt.Errorf("profile: encode dataset: %w", err)
	}
	return gz.Close()
}

// Load reads a dataset written by Save.
func Load(r io.Reader) (Dataset, error) {
	gz, err := gzip.NewReader(r)
	if err != nil {
		return Dataset{}, fmt.Errorf("profile: open dataset: %w", err)
	}
	defer gz.Close()
	var f datasetFile
	if err := json.NewDecoder(gz).Decode(&f); err != nil {
		return Dataset{}, fmt.Errorf("profile: decode dataset: %w", err)
	}
	if f.Version != datasetVersion {
		return Dataset{}, fmt.Errorf("profile: unsupported dataset version %d", f.Version)
	}
	if err := f.Schema.Validate(); err != nil {
		return Dataset{}, err
	}
	for i, r := range f.Rows {
		if len(r.Features) != NumFeatures {
			return Dataset{}, fmt.Errorf("profile: row %d has %d features, want %d", i, len(r.Features), NumFeatures)
		}
	}
	return Dataset{Schema: f.Schema, Rows: f.Rows}, nil
}

// SaveFile writes the dataset to a file path.
func (d Dataset) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := d.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a dataset from a file path.
func LoadFile(path string) (Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return Dataset{}, err
	}
	defer f.Close()
	return Load(f)
}

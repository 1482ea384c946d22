package deepforest

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"stac/internal/stats"
)

// FuzzLoadModel feeds arbitrary bytes to LoadModel, seeded with a small
// trained model and its truncations. A rejected input must fail with a
// *FormatError. An accepted model must predict a vector of its own input
// width without panicking or hanging, and survive Save∘LoadModel: the
// reloaded model saves to the same bytes and predicts the same value.
func FuzzLoadModel(f *testing.F) {
	x, y, spec := synthMatrix(40, 2, 8, 6, 11)
	cfg := testConfig(spec)
	cfg.Windows = []WindowConfig{{Size: 3, Stride: 3, Trees: 2}}
	cfg.ForestsPerLevel, cfg.CascadeTrees = 2, 2
	cfg.MaxDepth, cfg.MGSMaxDepth = 3, 3
	m, err := Train(x, y, cfg, stats.NewRNG(12))
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		f.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := LoadModel(bytes.NewReader(data)); err != nil {
		f.Fatalf("trained model rejected: %v", err)
	}
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add(data[:len(data)-1])

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := LoadModel(bytes.NewReader(data))
		if err != nil {
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("rejection is not a *FormatError: %v", err)
			}
			return
		}
		var saved bytes.Buffer
		if err := m.Save(&saved); err != nil {
			t.Fatal(err)
		}
		back, err := LoadModel(bytes.NewReader(saved.Bytes()))
		if err != nil {
			t.Fatalf("saved model rejected: %v", err)
		}
		var again bytes.Buffer
		if err := back.Save(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saved.Bytes(), again.Bytes()) {
			t.Fatal("Save∘LoadModel changed the encoding")
		}
		// A mutated width can be huge; the structure checks hold at any
		// width, so only moderate ones are driven.
		if m.NumFeatures() > 1<<14 {
			return
		}
		probe := make([]float64, m.NumFeatures())
		a, b := m.Predict(probe), back.Predict(probe)
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("reloaded model predicts %v, want %v", b, a)
		}
	})
}

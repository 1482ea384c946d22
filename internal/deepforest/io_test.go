package deepforest

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"stac/internal/stats"
)

func TestModelSerializationRoundTrip(t *testing.T) {
	x, y, spec := synthMatrix(120, 3, 12, 10, 41)
	m, err := Train(x, y, testConfig(spec), stats.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if restored.Predict(x[i]) != m.Predict(x[i]) {
			t.Fatalf("prediction differs after round trip at row %d", i)
		}
		a, b := restored.Concepts(x[i]), m.Concepts(x[i])
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("concepts differ after round trip at row %d", i)
			}
		}
	}
	if restored.NumMGSFeatures() != m.NumMGSFeatures() {
		t.Fatal("MGS feature count differs after round trip")
	}
}

func TestLoadModelRejectsGarbage(t *testing.T) {
	if _, err := LoadModel(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestGoldenModelFile pins the bytes Model.Save writes for a FastConfig
// model trained on a fixed synthetic matrix: the model file format, the
// builder's node order and every trained value (thresholds, leaf and
// internal-node means, split gains) in one digest.
func TestGoldenModelFile(t *testing.T) {
	const want = "8b0202ff34a1e27d6b8741be767604be3c09f9685a6cfe42fe07b17ce7e2d98c"
	x, y, spec := synthMatrix(160, 3, 12, 10, 71)
	cfg := FastConfig(spec)
	cfg.Workers = 2
	m, err := Train(x, y, cfg, stats.NewRNG(72))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Fatalf("model file sha256 = %s, want %s (%d bytes)", got, want, buf.Len())
	}
}

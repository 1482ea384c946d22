package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesMetrics keeps the metric lists of the
// repository's BENCHMARK.json and of perfbench the same.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, perfbench %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s (%s), perfbench %s (%s)",
				i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	want := map[string]string{"latency_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
	if len(spec.EndToEnd) != len(want) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, perfbench reports %d", len(spec.EndToEnd), len(want))
	}
	for _, m := range spec.EndToEnd {
		if want[m.Name] != m.Unit {
			t.Errorf("end-to-end metric %s (%s) is not one perfbench reports", m.Name, m.Unit)
		}
	}
}

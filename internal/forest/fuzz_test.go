package forest

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"testing"

	"stac/internal/stats"
)

// FuzzTreeUnmarshal feeds arbitrary bytes to Tree.UnmarshalBinary, seeded
// with a trained tree and hand-made malformed ones. A rejected input must
// fail with a *FormatError. An accepted tree must predict without
// panicking or hanging, whichever way its splits send a vector, and
// survive MarshalBinary∘UnmarshalBinary bit for bit.
func FuzzTreeUnmarshal(f *testing.F) {
	x, y := synth(80, 5)
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	trained, err := BuildTree(x, y, idx, TreeConfig{MaxDepth: 4}, stats.NewRNG(3))
	if err != nil {
		f.Fatal(err)
	}
	data, err := trained.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	encode := func(dto treeDTO) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(dto); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	// A split whose left child is itself, one whose right child is its
	// parent, an empty tree and a lone leaf.
	f.Add(encode(treeDTO{Feature: []int32{0, -1}, Thresh: []float64{0.5, 0}, Left: []int32{0, 0}, Right: []int32{1, 0}, Value: []float64{0, 1}}))
	f.Add(encode(treeDTO{Feature: []int32{0, 1, -1}, Thresh: []float64{0.5, 0.5, 0}, Left: []int32{2, 2, 0}, Right: []int32{1, 0, 0}, Value: []float64{0, 0, 1}}))
	f.Add(encode(treeDTO{}))
	f.Add(encode(treeDTO{Feature: []int32{-1}, Thresh: []float64{0}, Left: []int32{0}, Right: []int32{0}, Value: []float64{2}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		var tr Tree
		if err := tr.UnmarshalBinary(data); err != nil {
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("rejection is not a *FormatError: %v", err)
			}
			return
		}
		width := (&Forest{trees: []*Tree{&tr}}).NumInputs()
		for _, v := range []float64{0, math.Inf(-1), math.Inf(1), math.NaN()} {
			probe := make([]float64, width)
			for i := range probe {
				probe[i] = v
			}
			tr.Predict(probe)
		}
		again, err := tr.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var back Tree
		if err := back.UnmarshalBinary(again); err != nil {
			t.Fatalf("re-encoded tree rejected: %v", err)
		}
		if len(back.nodes) != len(tr.nodes) {
			t.Fatalf("round trip changed the node count: %d -> %d", len(tr.nodes), len(back.nodes))
		}
		for i, a := range tr.nodes {
			b := back.nodes[i]
			if a.feature != b.feature || a.left != b.left || a.right != b.right ||
				math.Float64bits(a.thresh) != math.Float64bits(b.thresh) ||
				math.Float64bits(a.value) != math.Float64bits(b.value) ||
				math.Float64bits(a.gain) != math.Float64bits(b.gain) {
				t.Fatalf("round trip changed node %d: %+v -> %+v", i, a, b)
			}
		}
	})
}

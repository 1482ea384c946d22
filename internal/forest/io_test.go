package forest

import (
	"bytes"
	"encoding/gob"
	"errors"
	"strings"
	"testing"

	"stac/internal/stats"
)

func TestTreeSerializationRoundTrip(t *testing.T) {
	x, y := synth(150, 31)
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	tree, err := BuildTree(x, y, idx, TreeConfig{MaxFeatures: 6}, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	data, err := tree.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var restored Tree
	if err := restored.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if restored.Predict(x[i]) != tree.Predict(x[i]) {
			t.Fatalf("prediction differs after round trip at row %d", i)
		}
	}
}

func TestForestSerializationRoundTrip(t *testing.T) {
	x, y := synth(200, 33)
	f, err := Train(x, y, RandomForest(12), stats.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	data, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var restored Forest
	if err := restored.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if restored.NumTrees() != f.NumTrees() {
		t.Fatalf("tree count %d != %d", restored.NumTrees(), f.NumTrees())
	}
	for i := 0; i < 50; i++ {
		if restored.Predict(x[i]) != f.Predict(x[i]) {
			t.Fatalf("prediction differs after round trip at row %d", i)
		}
	}
}

func TestUnmarshalRejectsCorruptTree(t *testing.T) {
	var tr Tree
	if err := tr.UnmarshalBinary([]byte("garbage")); err == nil {
		t.Fatal("garbage accepted")
	}
}

// notPreorder is a three-node tree whose split has both children after
// it but swapped: its left child is node 2, not the next node, which the
// preorder node layout cannot represent.
var notPreorder = treeDTO{
	Feature: []int32{0, -1, -1},
	Thresh:  []float64{0.5, 0, 0},
	Left:    []int32{2, 0, 0},
	Right:   []int32{1, 0, 0},
	Value:   []float64{0, 1, 2},
}

func TestUnmarshalRejectsNonPreorderTree(t *testing.T) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(notPreorder); err != nil {
		t.Fatal(err)
	}
	var tr Tree
	err := tr.UnmarshalBinary(buf.Bytes())
	var fe *FormatError
	if !errors.As(err, &fe) || !strings.Contains(fe.Msg, "not the next node") {
		t.Fatalf("non-preorder tree: error %v, want a *FormatError naming the left child", err)
	}
}

package forest

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// treeDTO is the serialised form of a Tree (exported fields for gob).
// Left is always i+1 for a split, which the preorder rule already says;
// it stays so that the file format does not change. Leaves write 0 for
// Thresh, Left and Right and keep their output in Value.
type treeDTO struct {
	Feature []int32
	Thresh  []float64
	Left    []int32
	Right   []int32
	Value   []float64
	Gain    []float64
}

// MarshalBinary encodes the tree (encoding.BinaryMarshaler).
func (t *Tree) MarshalBinary() ([]byte, error) {
	dto := treeDTO{
		Feature: make([]int32, len(t.nodes)),
		Thresh:  make([]float64, len(t.nodes)),
		Left:    make([]int32, len(t.nodes)),
		Right:   make([]int32, len(t.nodes)),
		Value:   make([]float64, len(t.nodes)),
		Gain:    make([]float64, len(t.nodes)),
	}
	for i, n := range t.nodes {
		dto.Feature[i] = n.feature
		dto.Value[i] = t.stats[i].mean
		dto.Gain[i] = t.stats[i].gain
		if n.feature >= 0 {
			dto.Thresh[i] = n.thresh
			dto.Left[i] = int32(i + 1)
			dto.Right[i] = n.right
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(dto); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// FormatError reports serialised bytes that do not decode to a usable
// tree or forest: a corrupt encoding, an empty tree or forest, or an
// internal node whose left child is not the next node or whose right
// child does not come after it. The builder lays trees out in preorder,
// so every trained tree passes, and a decoded tree's Predict always
// reaches a leaf.
type FormatError struct {
	Msg string
	Err error // the decoder's error, if any
}

func (e *FormatError) Error() string {
	if e.Err != nil {
		return "forest: " + e.Msg + ": " + e.Err.Error()
	}
	return "forest: " + e.Msg
}

func (e *FormatError) Unwrap() error { return e.Err }

// UnmarshalBinary decodes a tree (encoding.BinaryUnmarshaler). It fails
// with a *FormatError.
func (t *Tree) UnmarshalBinary(data []byte) error {
	if fe := t.decode(data); fe != nil {
		return fe
	}
	return nil
}

func (t *Tree) decode(data []byte) *FormatError {
	var dto treeDTO
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&dto); err != nil {
		return &FormatError{Msg: "decode tree", Err: err}
	}
	n := len(dto.Feature)
	if n == 0 {
		return &FormatError{Msg: "empty tree"}
	}
	if len(dto.Thresh) != n || len(dto.Left) != n || len(dto.Right) != n || len(dto.Value) != n {
		return &FormatError{Msg: "tree node arrays differ in length"}
	}
	t.nodes = make([]node, n)
	t.stats = make([]nodeStats, n)
	for i := range t.nodes {
		t.nodes[i] = node{feature: dto.Feature[i], thresh: dto.Value[i]}
		t.stats[i].mean = dto.Value[i]
		if i < len(dto.Gain) {
			t.stats[i].gain = dto.Gain[i]
		}
		if dto.Feature[i] < 0 {
			continue
		}
		left, right := dto.Left[i], dto.Right[i]
		if int(left) != i+1 {
			return &FormatError{Msg: fmt.Sprintf("node %d: left child %d is not the next node (trees are stored in preorder)", i, left)}
		}
		if !(int(right) > i && int(right) < n) {
			return &FormatError{Msg: fmt.Sprintf("node %d: right child %d does not come after it in a %d-node tree", i, right, n)}
		}
		t.nodes[i].thresh = dto.Thresh[i]
		t.nodes[i].right = right
	}
	return nil
}

// forestDTO is the serialised form of a Forest.
type forestDTO struct {
	Trees [][]byte
}

// MarshalBinary encodes the forest.
func (f *Forest) MarshalBinary() ([]byte, error) {
	dto := forestDTO{Trees: make([][]byte, len(f.trees))}
	for i := range f.trees {
		b, err := f.trees[i].MarshalBinary()
		if err != nil {
			return nil, err
		}
		dto.Trees[i] = b
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(dto); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary decodes a forest. It fails with a *FormatError.
func (f *Forest) UnmarshalBinary(data []byte) error {
	var dto forestDTO
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&dto); err != nil {
		return &FormatError{Msg: "decode forest", Err: err}
	}
	if len(dto.Trees) == 0 {
		return &FormatError{Msg: "empty forest"}
	}
	f.trees = make([]Tree, len(dto.Trees))
	for i, b := range dto.Trees {
		if fe := f.trees[i].decode(b); fe != nil {
			fe.Msg = fmt.Sprintf("tree %d: %s", i, fe.Msg)
			return fe
		}
	}
	return nil
}

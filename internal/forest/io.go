package forest

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// treeDTO is the serialised form of a Tree (exported fields for gob).
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
		dto.Feature[i] = int32(n.feature)
		dto.Thresh[i] = n.thresh
		dto.Left[i] = n.left
		dto.Right[i] = n.right
		dto.Value[i] = n.value
		dto.Gain[i] = n.gain
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(dto); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// FormatError reports serialised bytes that do not decode to a usable
// tree or forest: a corrupt encoding, an empty tree or forest, or an
// internal node whose children do not come after it. The builder lays
// trees out in preorder, so every trained tree passes, and a decoded
// tree's Predict always reaches a leaf.
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
	for i := range t.nodes {
		left, right := dto.Left[i], dto.Right[i]
		if dto.Feature[i] >= 0 && !(int(left) > i && int(left) < n && int(right) > i && int(right) < n) {
			return &FormatError{Msg: fmt.Sprintf("node %d: children %d and %d do not both come after it in a %d-node tree",
				i, left, right, n)}
		}
		t.nodes[i] = node{
			feature: int(dto.Feature[i]),
			thresh:  dto.Thresh[i],
			left:    left,
			right:   right,
			value:   dto.Value[i],
		}
		if i < len(dto.Gain) {
			t.nodes[i].gain = dto.Gain[i]
		}
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
	for i, t := range f.trees {
		b, err := t.MarshalBinary()
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
	f.trees = make([]*Tree, len(dto.Trees))
	for i, b := range dto.Trees {
		t := &Tree{}
		if fe := t.decode(b); fe != nil {
			fe.Msg = fmt.Sprintf("tree %d: %s", i, fe.Msg)
			return fe
		}
		f.trees[i] = t
	}
	return nil
}

package deepforest

import (
	"encoding/gob"
	"fmt"
	"io"

	"stac/internal/forest"
)

// grainDTO is the serialised form of a trained MGS grain.
type grainDTO struct {
	Win       WindowConfig
	WR, WC    int
	Positions [][2]int
	Forest    []byte
}

// modelDTO is the serialised form of a deep-forest model.
type modelDTO struct {
	Version  int
	Cfg      Config
	Features int
	Grains   []grainDTO
	Cascade  [][][]byte
}

// modelVersion 2 added Features, the input width LoadModel checks the
// grains and cascade against.
const modelVersion = 2

// FormatError reports a model file that does not decode to a usable
// model: a corrupt or truncated encoding, an unsupported version, or a
// structure its own inputs cannot drive (a window outside the matrix, a
// forest reading past the features it is given).
type FormatError struct {
	Msg string
	Err error // the decoder's error, if any
}

func (e *FormatError) Error() string {
	if e.Err != nil {
		return "deepforest: " + e.Msg + ": " + e.Err.Error()
	}
	return "deepforest: " + e.Msg
}

func (e *FormatError) Unwrap() error { return e.Err }

// Save serialises the trained model with encoding/gob.
func (m *Model) Save(w io.Writer) error {
	dto := modelDTO{Version: modelVersion, Cfg: m.cfg, Features: m.features}
	for _, g := range m.grains {
		fb, err := g.forest.MarshalBinary()
		if err != nil {
			return fmt.Errorf("deepforest: encode grain forest: %w", err)
		}
		dto.Grains = append(dto.Grains, grainDTO{
			Win: g.win, WR: g.wr, WC: g.wc, Positions: g.positions, Forest: fb,
		})
	}
	for _, level := range m.cascade {
		var lvl [][]byte
		for _, f := range level {
			fb, err := f.MarshalBinary()
			if err != nil {
				return fmt.Errorf("deepforest: encode cascade forest: %w", err)
			}
			lvl = append(lvl, fb)
		}
		dto.Cascade = append(dto.Cascade, lvl)
	}
	return gob.NewEncoder(w).Encode(dto)
}

// LoadModel deserialises a model written by Save. It checks the whole
// structure before returning, so a model it accepts cannot panic or hang
// on a feature vector of NumFeatures values; a file it rejects fails
// with a *FormatError.
func LoadModel(r io.Reader) (*Model, error) {
	var dto modelDTO
	if err := gob.NewDecoder(r).Decode(&dto); err != nil {
		return nil, &FormatError{Msg: "decode model", Err: err}
	}
	if dto.Version != modelVersion {
		return nil, &FormatError{Msg: fmt.Sprintf("unsupported model version %d (want %d)", dto.Version, modelVersion)}
	}
	mx := dto.Cfg.Matrix
	if mx.Rows <= 0 || mx.Cols <= 0 || mx.Offset < 0 || mx.Offset > dto.Features ||
		mx.Rows > (dto.Features-mx.Offset)/mx.Cols {
		return nil, &FormatError{Msg: fmt.Sprintf("matrix %+v does not fit %d input features", mx, dto.Features)}
	}
	if len(dto.Grains) == 0 || len(dto.Cascade) == 0 {
		return nil, &FormatError{Msg: "model has no grains or cascade levels"}
	}
	m := &Model{cfg: dto.Cfg, features: dto.Features}
	for i, gd := range dto.Grains {
		g := &grain{win: gd.Win, wr: gd.WR, wc: gd.WC, positions: gd.Positions, forest: &forest.Forest{}}
		if err := g.forest.UnmarshalBinary(gd.Forest); err != nil {
			return nil, &FormatError{Msg: fmt.Sprintf("grain %d", i), Err: err}
		}
		if msg := g.check(mx); msg != "" {
			return nil, &FormatError{Msg: fmt.Sprintf("grain %d: %s", i, msg)}
		}
		m.grains = append(m.grains, g)
	}
	// Level 0 reads the input and the MGS features; each later level
	// also reads the previous level's concepts.
	base := dto.Features + m.NumMGSFeatures()
	width := base
	for l, lvlBytes := range dto.Cascade {
		if len(lvlBytes) == 0 {
			return nil, &FormatError{Msg: fmt.Sprintf("cascade level %d has no forests", l)}
		}
		level := make([]*forest.Forest, len(lvlBytes))
		for f, fb := range lvlBytes {
			level[f] = &forest.Forest{}
			if err := level[f].UnmarshalBinary(fb); err != nil {
				return nil, &FormatError{Msg: fmt.Sprintf("cascade level %d forest %d", l, f), Err: err}
			}
			if n := level[f].NumInputs(); n > width {
				return nil, &FormatError{Msg: fmt.Sprintf("cascade level %d forest %d reads feature %d of %d", l, f, n-1, width)}
			}
		}
		m.cascade = append(m.cascade, level)
		width = base + len(level)
	}
	return m, nil
}

// check returns why the grain cannot scan matrix mx, or "" if it can:
// its window and every position must lie inside the matrix, and its
// forest must read only the window's cells.
func (g *grain) check(mx MatrixSpec) string {
	if g.wr <= 0 || g.wr > mx.Rows || g.wc <= 0 || g.wc > mx.Cols {
		return fmt.Sprintf("window %dx%d does not fit the %dx%d matrix", g.wr, g.wc, mx.Rows, mx.Cols)
	}
	if len(g.positions) == 0 {
		return "no window positions"
	}
	for _, p := range g.positions {
		if p[0] < 0 || p[0] > mx.Rows-g.wr || p[1] < 0 || p[1] > mx.Cols-g.wc {
			return fmt.Sprintf("window position %v outside the %dx%d matrix", p, mx.Rows, mx.Cols)
		}
	}
	if n := g.forest.NumInputs(); n > g.wr*g.wc {
		return fmt.Sprintf("forest reads feature %d of a %d-cell window", n-1, g.wr*g.wc)
	}
	return ""
}

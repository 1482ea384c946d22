// Package deepforest implements the paper's deep-forest model (§4.1,
// after Zhou & Feng's gcForest): multi-grain scanning (MGS) turns the
// counters×queries profile matrix into representational features via
// sliding-window forests, and a cascade of forest ensembles implements
// deep learning — each level's predictions ("concepts") augment the
// features of the next level. Out-of-fold prediction generates training
// concepts so cascades do not overfit their own outputs.
package deepforest

import (
	"fmt"
	"strconv"
	"sync"

	"stac/internal/forest"
	"stac/internal/obs"
	"stac/internal/par"
	"stac/internal/stats"
)

// MatrixSpec locates the counters×queries matrix inside a flat feature
// vector: features [Offset, Offset+Rows*Cols) hold the matrix row-major
// (counter-major), matching profile.Schema.
type MatrixSpec struct {
	Offset int
	Rows   int
	Cols   int
}

// WindowConfig is one MGS sliding-window grain.
type WindowConfig struct {
	// Size is the square window edge (clipped to the matrix dimensions).
	Size int
	// Stride is the sliding step (1 = paper-exact; larger strides trade
	// features for speed).
	Stride int
	// Trees is the window forest's estimator count (paper: 50).
	Trees int
}

// Config controls deep-forest construction.
type Config struct {
	Matrix MatrixSpec
	// Windows lists the MGS grains (paper: 5×5, 10×10, 15×15, 35×35).
	Windows []WindowConfig
	// CascadeLevels is the number of cascade levels (paper: 4).
	CascadeLevels int
	// ForestsPerLevel is the ensemble width per level (paper: 4); half
	// are best-split random forests, half completely-random forests to
	// encourage diversity.
	ForestsPerLevel int
	// CascadeTrees is the estimator count per cascade forest (paper: 100).
	CascadeTrees int
	// KFolds is the cross-fitting fold count for concept generation.
	KFolds int
	// MaxDepth caps tree depth in cascade forests (0 = grow to purity).
	MaxDepth int
	// MGSMaxDepth caps tree depth in MGS forests.
	MGSMaxDepth int
	// MaxMGSInstances caps the (row × position) instance count used to
	// train each window forest.
	MaxMGSInstances int
	// ThresholdSamples configures the fast splitter (0 = exact CART).
	ThresholdSamples int
	// Workers bounds per-forest training parallelism (0 = GOMAXPROCS,
	// 1 = fully sequential). Trained models are identical at any worker
	// count.
	Workers int
}

// DefaultConfig returns the paper-faithful configuration: four grains at
// stride 1 with 50 estimators, four cascade levels of four forests with
// 100 estimators.
func DefaultConfig(m MatrixSpec) Config {
	return Config{
		Matrix: m,
		Windows: []WindowConfig{
			{Size: 5, Stride: 1, Trees: 50},
			{Size: 10, Stride: 1, Trees: 50},
			{Size: 15, Stride: 1, Trees: 50},
			{Size: 35, Stride: 1, Trees: 50},
		},
		CascadeLevels:    4,
		ForestsPerLevel:  4,
		CascadeTrees:     100,
		KFolds:           3,
		MaxDepth:         0,
		MGSMaxDepth:      12,
		MaxMGSInstances:  20000,
		ThresholdSamples: 8,
	}
}

// FastConfig returns a scaled-down configuration for single-core runs:
// the same structure (four grains, cascading, forest diversity) with
// strides and estimator counts reduced. Experiment harnesses use it so
// the full evaluation suite completes in minutes; accuracy is within a
// few points of DefaultConfig on the profiling datasets.
func FastConfig(m MatrixSpec) Config {
	return Config{
		Matrix: m,
		Windows: []WindowConfig{
			{Size: 5, Stride: 3, Trees: 16},
			{Size: 10, Stride: 4, Trees: 16},
			{Size: 15, Stride: 6, Trees: 12},
			{Size: 35, Stride: 8, Trees: 12},
		},
		CascadeLevels:    2,
		ForestsPerLevel:  4,
		CascadeTrees:     24,
		KFolds:           3,
		MaxDepth:         12,
		MGSMaxDepth:      8,
		MaxMGSInstances:  6000,
		ThresholdSamples: 8,
	}
}

func (c Config) validate(numFeatures int) error {
	m := c.Matrix
	if m.Rows <= 0 || m.Cols <= 0 {
		return fmt.Errorf("deepforest: empty matrix spec %+v", m)
	}
	if m.Offset < 0 || m.Offset+m.Rows*m.Cols > numFeatures {
		return fmt.Errorf("deepforest: matrix [%d,%d) exceeds %d features",
			m.Offset, m.Offset+m.Rows*m.Cols, numFeatures)
	}
	if len(c.Windows) == 0 {
		return fmt.Errorf("deepforest: no MGS windows")
	}
	for i, w := range c.Windows {
		if w.Size <= 0 || w.Stride <= 0 || w.Trees <= 0 {
			return fmt.Errorf("deepforest: window %d invalid: %+v", i, w)
		}
	}
	if c.CascadeLevels <= 0 || c.ForestsPerLevel <= 0 || c.CascadeTrees <= 0 {
		return fmt.Errorf("deepforest: cascade config invalid")
	}
	if c.KFolds < 2 {
		return fmt.Errorf("deepforest: KFolds must be >= 2")
	}
	return nil
}

// Model is a trained deep forest.
type Model struct {
	cfg      Config
	features int // input width the model was trained on
	grains   []*grain
	cascade  [][]*forest.Forest // [level][forest]

	scratch sync.Pool // *scratch sized for this model, so Predict allocates nothing
}

// scratch is one forward pass's working memory: the cascade input laid
// out as [x | MGS outputs | previous level's concepts], the current
// level's concepts, and one MGS window.
type scratch struct {
	input, level, window []float64
}

// getScratch takes a pooled scratch, or builds one sized for the model.
// Return it with m.scratch.Put.
func (m *Model) getScratch() *scratch {
	if s, ok := m.scratch.Get().(*scratch); ok {
		return s
	}
	width := 0
	for _, level := range m.cascade {
		width = max(width, len(level))
	}
	return &scratch{
		input:  make([]float64, m.features+m.NumMGSFeatures()+width),
		level:  make([]float64, width),
		window: make([]float64, m.windowSize()),
	}
}

// NumFeatures returns the input width the model was trained on; Predict
// expects feature vectors of exactly this length.
func (m *Model) NumFeatures() int { return m.features }

// grain is one trained MGS window forest with its precomputed positions.
type grain struct {
	win       WindowConfig
	wr, wc    int      // effective (clipped) window dims
	positions [][2]int // top-left (row, col) positions
	forest    *forest.Forest
}

// extract fills dst with the window at (r,c) from the flat features.
func (g *grain) extract(m MatrixSpec, x []float64, r, c int, dst []float64) {
	k := 0
	for i := 0; i < g.wr; i++ {
		base := m.Offset + (r+i)*m.Cols + c
		for j := 0; j < g.wc; j++ {
			dst[k] = x[base+j]
			k++
		}
	}
}

// NumMGSFeatures returns the total representational feature count.
func (m *Model) NumMGSFeatures() int {
	n := 0
	for _, g := range m.grains {
		n += len(g.positions)
	}
	return n
}

// windowSize returns the largest grain's window cell count.
func (m *Model) windowSize() int {
	n := 0
	for _, g := range m.grains {
		n = max(n, g.wr*g.wc)
	}
	return n
}

// fillBase writes one row's base features into dst: the row's first
// NumFeatures values, then every grain's window-forest prediction at each
// of its positions. window holds at least windowSize values.
func (m *Model) fillBase(dst, x, window []float64) {
	n := copy(dst, x[:m.features])
	for _, g := range m.grains {
		w := window[:g.wr*g.wc]
		for _, pos := range g.positions {
			g.extract(m.cfg.Matrix, x, pos[0], pos[1], w)
			dst[n] = g.forest.Predict(w)
			n++
		}
	}
}

// Train fits a deep forest on rows x with targets y.
func Train(x [][]float64, y []float64, cfg Config, rng *stats.RNG) (*Model, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, fmt.Errorf("deepforest: bad training shapes: %d rows, %d targets", len(x), len(y))
	}
	if err := cfg.validate(len(x[0])); err != nil {
		return nil, err
	}
	model := &Model{cfg: cfg, features: len(x[0])}
	defer obs.Span("deepforest/train")()

	// --- Multi-grain scanning ---
	for _, win := range cfg.Windows {
		grainSpan := obs.StartSpan("deepforest/mgs/w" + strconv.Itoa(win.Size))
		g, err := trainGrain(x, y, cfg, win, rng.Split())
		grainSpan.End()
		if err != nil {
			return nil, err
		}
		model.grains = append(model.grains, g)
	}

	// Each row is laid out as [x | MGS outputs | previous level's
	// concepts], as forward lays out its input. Rows are independent
	// (pure forest evaluation), so fan them out; the result is identical
	// at any worker count.
	base := model.features + model.NumMGSFeatures()
	rows := make([][]float64, len(x))
	_ = par.ForEach(cfg.Workers, len(x), func(i int) error {
		rows[i] = make([]float64, base+cfg.ForestsPerLevel)
		model.fillBase(rows[i], x[i], make([]float64, model.windowSize()))
		return nil
	})

	// --- Cascade ---
	// Level 0 reads the base features; each later level also reads the
	// previous level's out-of-fold concepts, written in place once every
	// forest of that level is trained.
	input := make([][]float64, len(x))
	oof := make([][]float64, cfg.ForestsPerLevel)
	width := base
	for level := 0; level < cfg.CascadeLevels; level++ {
		levelSpan := obs.StartSpan("deepforest/cascade/level" + strconv.Itoa(level))
		for i, row := range rows {
			input[i] = row[:width]
		}
		levelForests := make([]*forest.Forest, cfg.ForestsPerLevel)
		for f := 0; f < cfg.ForestsPerLevel; f++ {
			fcfg := cascadeForestConfig(cfg, f)
			var err error
			oof[f], levelForests[f], err = crossFit(input, y, fcfg, cfg.KFolds, rng.Split())
			if err != nil {
				levelSpan.End()
				return nil, err
			}
		}
		for i, row := range rows {
			for f := range oof {
				row[base+f] = oof[f][i]
			}
		}
		model.cascade = append(model.cascade, levelForests)
		width = base + cfg.ForestsPerLevel
		levelSpan.End()
	}
	return model, nil
}

// cascadeForestConfig alternates best-split and completely-random forests
// for ensemble diversity (§4.1: "Different type of forests are used to
// encourage diversity").
func cascadeForestConfig(cfg Config, f int) forest.Config {
	var fc forest.Config
	if f%2 == 0 {
		fc = forest.RandomForest(cfg.CascadeTrees)
	} else {
		fc = forest.CompletelyRandomForest(cfg.CascadeTrees)
	}
	fc.Tree.MaxDepth = cfg.MaxDepth
	fc.Tree.ThresholdSamples = cfg.ThresholdSamples
	fc.Workers = cfg.Workers
	if f%2 == 1 {
		fc.Tree.ThresholdSamples = 0 // completely-random trees need none
	}
	return fc
}

// trainGrain trains one MGS window forest.
func trainGrain(x [][]float64, y []float64, cfg Config, win WindowConfig, rng *stats.RNG) (*grain, error) {
	m := cfg.Matrix
	g := &grain{win: win}
	g.wr = min(win.Size, m.Rows)
	g.wc = min(win.Size, m.Cols)
	for r := 0; r+g.wr <= m.Rows; r += win.Stride {
		for c := 0; c+g.wc <= m.Cols; c += win.Stride {
			g.positions = append(g.positions, [2]int{r, c})
		}
	}
	if len(g.positions) == 0 {
		return nil, fmt.Errorf("deepforest: window %d produces no positions", win.Size)
	}

	total := len(x) * len(g.positions)
	keep := total
	if cfg.MaxMGSInstances > 0 && keep > cfg.MaxMGSInstances {
		keep = cfg.MaxMGSInstances
	}
	// Deterministic subsample of (row, position) pairs, extracted
	// straight into the columnar training frame — one window-sized
	// scratch row instead of a fresh slice per instance.
	fr := forest.NewEmptyFrame(keep, g.wr*g.wc)
	ys := make([]float64, keep)
	buf := make([]float64, g.wr*g.wc)
	stride := float64(total) / float64(keep)
	pos := 0.0
	for k := 0; k < keep; k++ {
		inst := int(pos)
		if inst >= total {
			inst = total - 1
		}
		row := inst / len(g.positions)
		p := g.positions[inst%len(g.positions)]
		g.extract(m, x[row], p[0], p[1], buf)
		fr.SetRow(k, buf)
		ys[k] = y[row]
		pos += stride
	}

	fc := forest.RandomForest(win.Trees)
	fc.Tree.MaxDepth = cfg.MGSMaxDepth
	fc.Tree.ThresholdSamples = cfg.ThresholdSamples
	fc.Workers = cfg.Workers
	var err error
	g.forest, err = forest.TrainFrame(fr, ys, fc, rng)
	if err != nil {
		return nil, err
	}
	return g, nil
}

// crossFit trains K out-of-fold forests to produce unbiased training
// concepts, then a final forest on all rows for inference.
func crossFit(x [][]float64, y []float64, fc forest.Config, k int, rng *stats.RNG) ([]float64, *forest.Forest, error) {
	n := len(x)
	oof := make([]float64, n)
	if k > n {
		k = n
	}
	perm := rng.Perm(n)
	for fold := 0; fold < k; fold++ {
		var trainX [][]float64
		var trainY []float64
		var testIdx []int
		for i, j := range perm {
			if i%k == fold {
				testIdx = append(testIdx, j)
			} else {
				trainX = append(trainX, x[j])
				trainY = append(trainY, y[j])
			}
		}
		if len(trainX) == 0 {
			continue
		}
		f, err := forest.Train(trainX, trainY, fc, rng.Split())
		if err != nil {
			return nil, nil, err
		}
		for _, j := range testIdx {
			oof[j] = f.Predict(x[j])
		}
	}
	full, err := forest.Train(x, y, fc, rng.Split())
	if err != nil {
		return nil, nil, err
	}
	return oof, full, nil
}

// Predict returns the deep forest's output for one feature vector of
// NumFeatures values: the mean of the final cascade level's forests. It
// allocates nothing once the model's scratch pool is warm.
func (m *Model) Predict(x []float64) float64 {
	return m.forward(x, nil)
}

// Concepts returns the concatenated concept activations of every cascade
// level for one row — the learned representation used by the §5.2
// insight experiment.
func (m *Model) Concepts(x []float64) []float64 {
	n := 0
	for _, level := range m.cascade {
		n += len(level)
	}
	concepts := make([]float64, n)
	m.forward(x, concepts)
	return concepts
}

// forward runs MGS + cascade and returns the final prediction. A non-nil
// concepts receives every level's concept activations, level by level.
func (m *Model) forward(x, concepts []float64) float64 {
	s := m.getScratch()
	base := m.features + m.NumMGSFeatures()
	m.fillBase(s.input, x, s.window)
	width := base
	final := 0.0
	for _, level := range m.cascade {
		input, cur := s.input[:width], s.level[:len(level)]
		sum := 0.0
		for f, fr := range level {
			cur[f] = fr.Predict(input)
			sum += cur[f]
		}
		concepts = concepts[copy(concepts, cur):]
		copy(s.input[base:], cur)
		width = base + len(level)
		final = sum / float64(len(level))
	}
	m.scratch.Put(s)
	return final
}

// PredictBatch predicts every row, fanning rows across the model's
// Workers bound. One row's forward pass costs hundreds of tree
// traversals (MGS transform + cascade), so per-row dispatch is already
// coarse-grained; outputs are identical to the serial loop.
func (m *Model) PredictBatch(x [][]float64) []float64 {
	out := make([]float64, len(x))
	_ = par.ForEach(m.cfg.Workers, len(x), func(i int) error {
		out[i] = m.Predict(x[i])
		return nil
	})
	return out
}

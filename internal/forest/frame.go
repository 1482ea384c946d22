package forest

// Frame is the columnar training frame shared by every tree of a forest.
// It holds one flat column-major copy of the feature matrix — so split
// scans walk contiguous memory instead of dereferencing a row slice per
// access — plus, for exact-sweep configurations, per-feature presorted
// row orders built once and reused by every tree and node (the classic
// presort-CART trick: trees maintain sorted order through stable
// partitioning instead of re-sorting each node).
//
// A Frame is immutable once training starts; TrainFrame builds the
// presorted orders before fanning trees out to the worker pool, so the
// shared state is read-only under concurrency.
type Frame struct {
	n, d int
	// cols holds the features column-major: cols[j*n+i] = x[i][j].
	cols []float64
	// sorted holds, per feature, the row indices ordered ascending by
	// feature value with row index as the tie-break (a deterministic
	// stable order): sorted[j*n : (j+1)*n]. Built on demand by
	// buildSorted; nil until an exact-sweep config needs it.
	sorted []int32
}

// NewFrame gathers a row-major feature matrix into a columnar frame.
// Rows must all have len(x[0]) features.
func NewFrame(x [][]float64) *Frame {
	fr := &Frame{n: len(x)}
	if fr.n == 0 {
		return fr
	}
	fr.d = len(x[0])
	fr.cols = make([]float64, fr.d*fr.n)
	for j := 0; j < fr.d; j++ {
		col := fr.cols[j*fr.n : (j+1)*fr.n]
		for i, row := range x {
			col[i] = row[j]
		}
	}
	return fr
}

// NewEmptyFrame returns an n×d frame of zeros to be filled with SetRow
// (or by writing Col slices directly) before training.
func NewEmptyFrame(n, d int) *Frame {
	return &Frame{n: n, d: d, cols: make([]float64, n*d)}
}

// SetRow scatters one row of features into the columns.
func (fr *Frame) SetRow(i int, row []float64) {
	for j, v := range row {
		fr.cols[j*fr.n+i] = v
	}
}

// buildSorted materialises the per-feature presorted row orders. Not
// safe to call concurrently with itself or with readers; TrainFrame
// invokes it before dispatching trees.
func (fr *Frame) buildSorted() {
	if fr.sorted != nil || fr.n == 0 {
		return
	}
	fr.sorted = make([]int32, fr.d*fr.n)
	for j := 0; j < fr.d; j++ {
		col := fr.cols[j*fr.n : (j+1)*fr.n]
		ord := fr.sorted[j*fr.n : (j+1)*fr.n]
		for i := range ord {
			ord[i] = int32(i)
		}
		sortRowsByValue(ord, col)
	}
}

// sortRowsByValue sorts row indices ascending by col value with the row
// index as tie-break. The (value, row) key is a total order, so the
// result is unique and any correct sort algorithm produces it; this
// inline-comparison quicksort replaces sort.Slice's closure-per-compare
// overhead on the one hot sort of training. Equal-value runs compare by
// the index key, and ord starts out index-ascending, so constant columns
// hit quicksort's presorted best case rather than a quadratic worst case.
func sortRowsByValue(ord []int32, col []float64) {
	for len(ord) > 24 {
		// Median-of-three pivot on (value, row), moved to ord[0] so the
		// Hoare scans below are sentinel-bounded (textbook partition:
		// both scans stop at the pivot's key at the latest).
		mid, last := len(ord)/2, len(ord)-1
		if rowLess(col, ord[mid], ord[0]) {
			ord[0], ord[mid] = ord[mid], ord[0]
		}
		if rowLess(col, ord[last], ord[mid]) {
			ord[mid], ord[last] = ord[last], ord[mid]
			if rowLess(col, ord[mid], ord[0]) {
				ord[0], ord[mid] = ord[mid], ord[0]
			}
		}
		ord[0], ord[mid] = ord[mid], ord[0]
		pr := ord[0]
		pv := col[pr]
		i, k := -1, len(ord)
		for {
			for {
				i++
				v := col[ord[i]]
				if v > pv || (v == pv && ord[i] >= pr) {
					break
				}
			}
			for {
				k--
				v := col[ord[k]]
				if v < pv || (v == pv && ord[k] <= pr) {
					break
				}
			}
			if i >= k {
				break
			}
			ord[i], ord[k] = ord[k], ord[i]
		}
		// Hoare split point: [0..k] and [k+1..); recurse into the
		// smaller side, loop on the larger.
		if k+1 < len(ord)-k-1 {
			sortRowsByValue(ord[:k+1], col)
			ord = ord[k+1:]
		} else {
			sortRowsByValue(ord[k+1:], col)
			ord = ord[:k+1]
		}
	}
	// Insertion sort for small runs.
	for i := 1; i < len(ord); i++ {
		r := ord[i]
		v := col[r]
		k := i
		for k > 0 && (col[ord[k-1]] > v || (col[ord[k-1]] == v && ord[k-1] > r)) {
			ord[k] = ord[k-1]
			k--
		}
		ord[k] = r
	}
}

func rowLess(col []float64, a, b int32) bool {
	va, vb := col[a], col[b]
	if va != vb {
		return va < vb
	}
	return a < b
}

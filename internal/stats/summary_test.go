package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestPercentileKnownValues(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if got := Percentile(xs, 50); got != 5 {
		t.Fatalf("P50 of {0,10} = %v, want 5", got)
	}
	if got := Percentile(xs, 95); math.Abs(got-9.5) > 1e-12 {
		t.Fatalf("P95 of {0,10} = %v, want 9.5", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Percentile mutated input")
	}
}

func TestPercentileEmptyAndSingle(t *testing.T) {
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile should be 0")
	}
	if Percentile([]float64{7}, 95) != 7 {
		t.Fatal("single-element percentile should be the element")
	}
}

func TestPercentileBoundsProperty(t *testing.T) {
	f := func(raw []float64, pRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		p := float64(pRaw) / 255 * 100
		v := Percentile(raw, p)
		sorted := append([]float64(nil), raw...)
		sort.Float64s(sorted)
		return v >= sorted[0] && v <= sorted[len(sorted)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, aRaw, bRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		a := float64(aRaw) / 255 * 100
		b := float64(bRaw) / 255 * 100
		if a > b {
			a, b = b, a
		}
		return Percentile(raw, a) <= Percentile(raw, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAPE(t *testing.T) {
	if got := APE(100, 111); math.Abs(got-0.11) > 1e-12 {
		t.Fatalf("APE = %v, want 0.11", got)
	}
	if got := APE(100, 89); math.Abs(got-0.11) > 1e-12 {
		t.Fatalf("APE = %v, want 0.11", got)
	}
	if got := APE(0, 2); got != 2 {
		t.Fatalf("APE with zero actual = %v, want 2", got)
	}
}

func TestSummarize(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	s := Summarize(xs)
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.P50 != 3 || s.Mean != 3 {
		t.Fatalf("bad summary: %+v", s)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 {
		t.Fatal("empty summary should have N=0")
	}
}

func TestWelfordMatchesBatch(t *testing.T) {
	r := NewRNG(3)
	xs := make([]float64, 5000)
	var w Welford
	for i := range xs {
		xs[i] = r.Float64()*10 - 5
		w.Add(xs[i])
	}
	if math.Abs(w.Mean()-Mean(xs)) > 1e-9 {
		t.Fatalf("welford mean %v != batch %v", w.Mean(), Mean(xs))
	}
	if math.Abs(w.Variance()-Variance(xs)) > 1e-9 {
		t.Fatalf("welford var %v != batch %v", w.Variance(), Variance(xs))
	}
}

func TestVarianceEdgeCases(t *testing.T) {
	if Variance(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Fatal("variance of <2 samples should be 0")
	}
	if v := Variance([]float64{2, 2, 2}); v != 0 {
		t.Fatalf("constant variance = %v, want 0", v)
	}
}

// TestPercentileMatchesSortReference is the property test for the
// selection percentile: on every input shape it must agree with sorting
// a copy (sort.Float64s, NaNs first) and interpolating, and it must
// leave its input untouched. -0 and +0 compare equal and sort.Float64s
// may order them either way, so values are compared with ==, and NaN
// matches NaN.
func TestPercentileMatchesSortReference(t *testing.T) {
	reference := func(xs []float64, p float64) float64 {
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		return percentileSorted(sorted, p)
	}
	same := func(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }
	ps := []float64{0, 1e-9, 50, 95, 99.9, 100}
	rng := NewRNG(11)
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}
	draw := func(kind int) float64 {
		switch kind {
		case 0: // continuous
			return rng.NormFloat64()
		case 1: // heavy duplicates
			return float64(rng.Intn(4))
		case 2: // duplicates, signed zeros and infinities, no NaN
			if rng.Intn(3) == 0 {
				return special[1+rng.Intn(len(special)-1)]
			}
			return float64(rng.Intn(3) - 1)
		default: // everything, NaN included
			if rng.Intn(4) == 0 {
				return special[rng.Intn(len(special))]
			}
			return rng.NormFloat64()
		}
	}
	sizes := []int{1, 2, 3, 4, 5, 7, 8, 16, 31, 100, 257, 1000, 4999, 5000}
	for _, n := range sizes {
		for kind := 0; kind < 4; kind++ {
			for order := 0; order < 4; order++ {
				xs := make([]float64, n)
				for i := range xs {
					xs[i] = draw(kind)
				}
				switch order {
				case 1:
					sort.Float64s(xs)
				case 2:
					sort.Sort(sort.Reverse(sort.Float64Slice(xs)))
				case 3: // organ pipe: ascending then descending
					sort.Float64s(xs)
					half := xs[n/2:]
					sort.Sort(sort.Reverse(sort.Float64Slice(half)))
				}
				before := make([]uint64, n)
				for i, x := range xs {
					before[i] = math.Float64bits(x)
				}
				for _, p := range ps {
					got, want := Percentile(xs, p), reference(xs, p)
					if !same(got, want) {
						t.Fatalf("n=%d kind=%d order=%d p=%v: got %v, want %v", n, kind, order, p, got, want)
					}
				}
				for i, x := range xs {
					if math.Float64bits(x) != before[i] {
						t.Fatalf("n=%d kind=%d order=%d: input modified at %d", n, kind, order, i)
					}
				}
			}
		}
	}
	// All-equal inputs, including runs of one signed zero.
	for _, v := range []float64{3, 0, math.Copysign(0, -1), math.Inf(1), math.NaN()} {
		xs := make([]float64, 777)
		for i := range xs {
			xs[i] = v
		}
		for _, p := range ps {
			if got, want := Percentile(xs, p), reference(xs, p); !same(got, want) {
				t.Fatalf("all %v, p=%v: got %v, want %v", v, p, got, want)
			}
		}
	}
}

// TestSelectKthEveryBudget checks that selection lands every rank
// whether it finishes by partitioning or runs out of partition budget
// and sorts the rest, on shapes that stress the pivot choice.
func TestSelectKthEveryBudget(t *testing.T) {
	const n = 300
	rng := NewRNG(5)
	shapes := map[string]func(i int) float64{
		"random":     func(int) float64 { return rng.NormFloat64() },
		"ascending":  func(i int) float64 { return float64(i) },
		"descending": func(i int) float64 { return float64(-i) },
		"few values": func(int) float64 { return float64(rng.Intn(3)) },
		"sawtooth":   func(i int) float64 { return float64(i % 7) },
	}
	for name, shape := range shapes {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = shape(i)
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, budget := range []int{0, 1, 2, 3, 2 * 9} {
			for _, r := range []int{0, 1, n / 3, n / 2, n - 16, n - 2, n - 1} {
				a := append([]float64(nil), xs...)
				selectKth(a, r, budget)
				if a[r] != sorted[r] {
					t.Fatalf("%s budget %d rank %d: got %v, want %v", name, budget, r, a[r], sorted[r])
				}
				for i := range a {
					if (i < r && a[i] > a[r]) || (i > r && a[i] < a[r]) {
						t.Fatalf("%s budget %d rank %d: a[%d]=%v on the wrong side of %v",
							name, budget, r, i, a[i], a[r])
					}
				}
			}
		}
	}
}

package workload

import (
	"testing"

	"stac/internal/stats"
)

func TestAllKernelsWellFormed(t *testing.T) {
	ks := All()
	if len(ks) != 8 {
		t.Fatalf("want 8 kernels, got %d", len(ks))
	}
	seen := map[string]bool{}
	for _, k := range ks {
		if k.Name == "" || k.Description == "" || k.CachePattern == "" {
			t.Errorf("kernel %q missing metadata", k.Name)
		}
		if seen[k.Name] {
			t.Errorf("duplicate kernel %q", k.Name)
		}
		seen[k.Name] = true
		if k.WorkingSet == 0 {
			t.Errorf("kernel %q has zero working set", k.Name)
		}
		if k.ComputePerAccess <= 0 {
			t.Errorf("kernel %q has non-positive compute per access", k.Name)
		}
		if k.Demand.Mean() <= 0 {
			t.Errorf("kernel %q has non-positive demand", k.Name)
		}
		if k.NewPattern == nil {
			t.Errorf("kernel %q has no pattern factory", k.Name)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		k, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if k.Name != name {
			t.Fatalf("ByName(%q) returned %q", name, k.Name)
		}
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("unknown kernel accepted")
	}
}

func TestPatternsProduceAccessesInRegion(t *testing.T) {
	r := stats.NewRNG(42)
	base := uint64(1) << 30
	for _, k := range All() {
		p := k.NewPattern(base)
		for i := 0; i < 5000; i++ {
			a := p.Next(r)
			if a.Addr < base {
				t.Fatalf("kernel %q produced address %#x below base %#x", k.Name, a.Addr, base)
			}
			// All kernels stay within a 64 MiB slot (streaming advances
			// but not that far in 5000 accesses).
			if a.Addr >= base+64<<20 {
				t.Fatalf("kernel %q escaped its slot: %#x", k.Name, a.Addr)
			}
		}
	}
}

func TestPatternsDeterministic(t *testing.T) {
	for _, k := range All() {
		p1 := k.NewPattern(0)
		p2 := k.NewPattern(0)
		r1 := stats.NewRNG(7)
		r2 := stats.NewRNG(7)
		for i := 0; i < 1000; i++ {
			a1, a2 := p1.Next(r1), p2.Next(r2)
			if a1 != a2 {
				t.Fatalf("kernel %q non-deterministic at access %d: %+v vs %+v", k.Name, i, a1, a2)
			}
		}
	}
}

func TestStrideScanWraps(t *testing.T) {
	s := &StrideScan{Base: 0, Size: 192, Stride: 64}
	r := stats.NewRNG(1)
	want := []uint64{0, 64, 128, 0, 64}
	for i, w := range want {
		if a := s.Next(r); a.Addr != w {
			t.Fatalf("access %d addr %d, want %d", i, a.Addr, w)
		}
	}
}

func TestStreamNeverRepeats(t *testing.T) {
	s := &Stream{Base: 0, Stride: 64}
	r := stats.NewRNG(1)
	seen := map[uint64]bool{}
	for i := 0; i < 10000; i++ {
		a := s.Next(r)
		if seen[a.Addr] {
			t.Fatalf("stream repeated address %#x", a.Addr)
		}
		seen[a.Addr] = true
	}
}

// TestZipfTablesShared pins that every pattern of a Zipf kernel draws
// from the one popularity table built for the process, rather than
// rebuilding it per pattern.
func TestZipfTablesShared(t *testing.T) {
	zipfOf := func(p Pattern) *stats.Zipf {
		if m, ok := p.(*Mixture); ok {
			p = m.Components[len(m.Components)-1]
		}
		return p.(*ZipfRegion).Zipf
	}
	for _, k := range []Kernel{Redis(), Social(), Spstream()} {
		if a, b := zipfOf(k.NewPattern(0)), zipfOf(k.NewPattern(1<<32)); a != b {
			t.Errorf("%s: two patterns built two Zipf tables", k.Name)
		}
	}
}

func TestZipfRegionTouchesConsecutiveLines(t *testing.T) {
	z := &ZipfRegion{Base: 0, RecordSize: 256, LinesPerOp: 4, Zipf: stats.NewZipf(16, 0.9)}
	r := stats.NewRNG(3)
	first := z.Next(r).Addr
	for i := 1; i < 4; i++ {
		a := z.Next(r)
		if a.Addr != first+uint64(i)*64 {
			t.Fatalf("op line %d at %#x, want %#x", i, a.Addr, first+uint64(i)*64)
		}
	}
}

func TestRandomWalkStaysInRegion(t *testing.T) {
	w := &RandomWalk{Base: 1 << 20, Size: 64 * KiB, Locality: 4}
	r := stats.NewRNG(5)
	for i := 0; i < 10000; i++ {
		a := w.Next(r)
		if a.Addr < 1<<20 || a.Addr >= 1<<20+64*KiB {
			t.Fatalf("walk escaped region: %#x", a.Addr)
		}
	}
}

func TestMixtureUsesAllComponents(t *testing.T) {
	m := &Mixture{
		Components: []Pattern{
			&StrideScan{Base: 0, Size: 4096, Stride: 64},
			&StrideScan{Base: 1 << 20, Size: 4096, Stride: 64},
		},
		Weights: []float64{0.5, 0.5},
	}
	r := stats.NewRNG(9)
	var lo, hi int
	for i := 0; i < 1000; i++ {
		if m.Next(r).Addr < 1<<20 {
			lo++
		} else {
			hi++
		}
	}
	if lo == 0 || hi == 0 {
		t.Fatalf("mixture ignored a component: lo=%d hi=%d", lo, hi)
	}
}

func TestRelativeReuseMatchesTable1(t *testing.T) {
	// Measure stack-distance-free proxy: unique lines touched per access
	// (higher => less reuse). KNN/Kmeans must reuse more than Redis and
	// Spstream, per Table 1.
	uniqueFrac := func(k Kernel) float64 {
		p := k.NewPattern(0)
		r := stats.NewRNG(11)
		seen := map[uint64]bool{}
		n := 20000
		for i := 0; i < n; i++ {
			seen[p.Next(r).Addr>>6] = true
		}
		return float64(len(seen)) / float64(n)
	}
	knn := uniqueFrac(KNN())
	kmeans := uniqueFrac(Kmeans())
	redis := uniqueFrac(Redis())
	spstream := uniqueFrac(Spstream())
	if knn >= redis || kmeans >= redis {
		t.Errorf("reuse ordering violated: knn=%.4f kmeans=%.4f redis=%.4f", knn, kmeans, redis)
	}
	if knn >= spstream {
		t.Errorf("knn (%.4f) should reuse more than spstream (%.4f)", knn, spstream)
	}
}

func TestSourceArrivalsMonotone(t *testing.T) {
	src := NewSource(Redis(), stats.Exponential{Rate: 100}, stats.NewRNG(21))
	prev := 0.0
	for i := 0; i < 1000; i++ {
		q := src.Pop()
		if q.Arrival < prev {
			t.Fatalf("arrival went backwards: %v < %v", q.Arrival, prev)
		}
		if q.Accesses < 1 {
			t.Fatalf("query with %d accesses", q.Accesses)
		}
		if q.ID != i+1 {
			t.Fatalf("query ID %d, want %d", q.ID, i+1)
		}
		prev = q.Arrival
	}
}

func TestSourcePeekDoesNotConsume(t *testing.T) {
	src := NewSource(KNN(), stats.Exponential{Rate: 10}, stats.NewRNG(2))
	p1 := src.Peek()
	p2 := src.Peek()
	if p1 != p2 {
		t.Fatal("Peek consumed the query")
	}
	if got := src.Pop(); got != p1 {
		t.Fatal("Pop returned a different query than Peek")
	}
}

func TestSourceRateMatchesConfig(t *testing.T) {
	rate := 200.0
	src := NewSource(KNN(), stats.Exponential{Rate: rate}, stats.NewRNG(33))
	n := 20000
	var last float64
	for i := 0; i < n; i++ {
		last = src.Pop().Arrival
	}
	gotRate := float64(n) / last
	if gotRate < rate*0.95 || gotRate > rate*1.05 {
		t.Fatalf("empirical rate %v, want ~%v", gotRate, rate)
	}
}

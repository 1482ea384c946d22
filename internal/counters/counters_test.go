package counters

import "testing"

func TestNumCounters(t *testing.T) {
	if NumCounters != 29 {
		t.Fatalf("NumCounters = %d, want 29 (paper samples 29 counters)", NumCounters)
	}
}

func TestNamesUniqueAndPresent(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < NumCounters; i++ {
		name := Counter(i).String()
		if name == "" || name == "unknown" {
			t.Errorf("counter %d has no name", i)
		}
		if seen[name] {
			t.Errorf("duplicate counter name %q", name)
		}
		seen[name] = true
	}
	if Counter(-1).String() != "unknown" || Counter(NumCounters).String() != "unknown" {
		t.Error("out-of-range counters should stringify as unknown")
	}
}

func TestSampleAddScale(t *testing.T) {
	var a, b Sample
	a[L1DLoads] = 2
	b[L1DLoads] = 3
	b[IPC] = 1.5
	a.Add(b)
	if a[L1DLoads] != 5 || a[IPC] != 1.5 {
		t.Fatalf("Add failed: %v %v", a[L1DLoads], a[IPC])
	}
	c := a.Scale(2)
	if c[L1DLoads] != 10 {
		t.Fatalf("Scale failed: %v", c[L1DLoads])
	}
	if a[L1DLoads] != 5 {
		t.Fatal("Scale should not mutate the receiver (value semantics)")
	}
}

func TestShuffledOrderIsPermutation(t *testing.T) {
	order := ShuffledOrder(42)
	if len(order) != NumCounters {
		t.Fatalf("order length %d", len(order))
	}
	seen := make([]bool, NumCounters)
	for _, i := range order {
		if i < 0 || i >= NumCounters || seen[i] {
			t.Fatalf("bad permutation: %v", order)
		}
		seen[i] = true
	}
	// Deterministic for a fixed seed, different for different seeds.
	again := ShuffledOrder(42)
	other := ShuffledOrder(43)
	sameAsAgain, sameAsOther := true, true
	for i := range order {
		if order[i] != again[i] {
			sameAsAgain = false
		}
		if order[i] != other[i] {
			sameAsOther = false
		}
	}
	if !sameAsAgain {
		t.Fatal("ShuffledOrder not deterministic per seed")
	}
	if sameAsOther {
		t.Fatal("ShuffledOrder identical across seeds")
	}
}

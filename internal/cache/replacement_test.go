package cache

import (
	"testing"

	"stac/internal/stats"
)

func TestReplacementString(t *testing.T) {
	names := map[Replacement]string{
		ReplaceLRU: "LRU", ReplaceRandom: "random", ReplaceBitPLRU: "bit-PLRU",
	}
	for r, want := range names {
		if got := r.String(); got != want {
			t.Errorf("Replacement(%d) = %q, want %q", int(r), got, want)
		}
	}
	if Replacement(9).String() != "unknown" {
		t.Error("unknown policy should stringify as unknown")
	}
}

// missRatioUnder runs a mixed hot/scan trace under a replacement policy.
func missRatioUnder(t *testing.T, rep Replacement, seed uint64) float64 {
	t.Helper()
	c, err := New(Config{Sets: 16, Ways: 8, LineSize: 64, Replace: rep})
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(seed)
	hot := 48    // hot lines, fit comfortably
	cold := 4096 // scanned lines
	for i := 0; i < 60000; i++ {
		var addr uint64
		if r.Float64() < 0.7 {
			addr = uint64(r.Intn(hot)) * 64
		} else {
			addr = uint64(1<<20) + uint64(r.Intn(cold))*64
		}
		c.Access(0, addr, false)
	}
	st := c.Stats(0)
	return float64(st.Misses) / float64(st.Accesses())
}

func TestAllPoliciesFunctional(t *testing.T) {
	for _, rep := range []Replacement{ReplaceLRU, ReplaceRandom, ReplaceBitPLRU} {
		m := missRatioUnder(t, rep, 5)
		if m <= 0 || m >= 1 {
			t.Errorf("%v: degenerate miss ratio %v", rep, m)
		}
		t.Logf("%v: miss ratio %.3f", rep, m)
	}
}

func TestLRUBeatsRandomOnReuseHeavyTrace(t *testing.T) {
	lru := missRatioUnder(t, ReplaceLRU, 7)
	random := missRatioUnder(t, ReplaceRandom, 7)
	if lru >= random {
		t.Fatalf("LRU (%v) should beat random (%v) on a hot/cold trace", lru, random)
	}
}

func TestBitPLRUApproximatesLRU(t *testing.T) {
	lru := missRatioUnder(t, ReplaceLRU, 9)
	plru := missRatioUnder(t, ReplaceBitPLRU, 9)
	random := missRatioUnder(t, ReplaceRandom, 9)
	// PLRU should land between exact LRU and random, closer to LRU.
	if plru > random {
		t.Fatalf("bit-PLRU (%v) worse than random (%v)", plru, random)
	}
	if plru > lru*1.5 {
		t.Fatalf("bit-PLRU (%v) far from LRU (%v)", plru, lru)
	}
}

func TestRandomReplacementDeterministic(t *testing.T) {
	a := missRatioUnder(t, ReplaceRandom, 11)
	b := missRatioUnder(t, ReplaceRandom, 11)
	if a != b {
		t.Fatal("random replacement must be deterministic per instance")
	}
}

func TestMaskRespectedUnderAllPolicies(t *testing.T) {
	for _, rep := range []Replacement{ReplaceLRU, ReplaceRandom, ReplaceBitPLRU} {
		c, err := New(Config{Sets: 1, Ways: 4, LineSize: 64, Replace: rep})
		if err != nil {
			t.Fatal(err)
		}
		c.SetMask(0, 0b0011)
		for i := uint64(0); i < 32; i++ {
			c.Access(0, i*64, false)
		}
		if occ := c.Occupancy(0); occ > 2 {
			t.Errorf("%v: occupancy %d exceeds 2 permitted ways", rep, occ)
		}
	}
}

package cache

import (
	"testing"
	"testing/quick"

	"stac/internal/stats"
)

func mustNew(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func small(t *testing.T) *Cache {
	return mustNew(t, Config{Sets: 4, Ways: 4, LineSize: 64})
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Sets: 3, Ways: 4, LineSize: 64},  // non power of two sets
		{Sets: 4, Ways: 0, LineSize: 64},  // zero ways
		{Sets: 4, Ways: 65, LineSize: 64}, // too many ways
		{Sets: 4, Ways: 4, LineSize: 48},  // non power of two line
		{Sets: 0, Ways: 4, LineSize: 64},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	if err := (Config{Sets: 512, Ways: 20, LineSize: 64}).Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := small(t)
	if c.Access(0, 0x1000, false) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0, 0x1000, false) {
		t.Fatal("second access missed")
	}
	st := c.Stats(0)
	if st.Hits != 1 || st.Misses != 1 || st.Installs != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSameLineDifferentOffsetsHit(t *testing.T) {
	c := small(t)
	c.Access(0, 0x1000, false)
	if !c.Access(0, 0x1003F, false) == (0x1003F>>6 == 0x1000>>6) {
		// 0x1003F is in a different line (0x1000+0x3F=0x103F is same line).
		t.Log("address arithmetic sanity")
	}
	if !c.Access(0, 0x103F, false) {
		t.Fatal("same-line access missed")
	}
}

func TestLRUEviction(t *testing.T) {
	// 1 set, 2 ways: the third distinct line evicts the least recently used.
	c := mustNew(t, Config{Sets: 1, Ways: 2, LineSize: 64})
	a, b, d := uint64(0), uint64(64), uint64(128)
	c.Access(0, a, false) // install a
	c.Access(0, b, false) // install b
	c.Access(0, a, false) // touch a; b is now LRU
	c.Access(0, d, false) // evicts b
	if !c.Access(0, a, false) {
		t.Fatal("a should still be cached")
	}
	if c.Access(0, b, false) {
		t.Fatal("b should have been evicted")
	}
}

func TestMaskRestrictsFills(t *testing.T) {
	c := mustNew(t, Config{Sets: 1, Ways: 4, LineSize: 64})
	c.SetMask(0, 0b0011) // CLOS 0 may fill ways 0,1
	c.SetMask(1, 0b1100) // CLOS 1 may fill ways 2,3
	// CLOS 0 installs three lines into two ways: at most 2 survive.
	for i := uint64(0); i < 3; i++ {
		c.Access(0, i*64, false)
	}
	if occ := c.Occupancy(0); occ != 2 {
		t.Fatalf("CLOS 0 occupancy %d, want 2", occ)
	}
	// CLOS 1 must never have displaced anything.
	if st := c.Stats(0); st.EvictionsSuffered != 0 {
		t.Fatalf("CLOS 0 suffered %d evictions with disjoint masks", st.EvictionsSuffered)
	}
}

func TestHitsAllowedOutsideMask(t *testing.T) {
	// CAT gates installs, not lookups: a line installed while the mask was
	// wide must still hit after the mask narrows.
	c := mustNew(t, Config{Sets: 1, Ways: 4, LineSize: 64})
	c.SetMask(0, 0b1111)
	c.Access(0, 0, false) // install in some way
	c.SetMask(0, 0b0001)
	if !c.Access(0, 0, false) {
		t.Fatal("hit should be allowed regardless of mask")
	}
}

func TestEmptyMaskBypasses(t *testing.T) {
	c := small(t)
	c.SetMask(0, 0)
	c.Access(0, 0, false)
	c.Access(0, 0, false)
	st := c.Stats(0)
	if st.Misses != 2 || st.Installs != 0 {
		t.Fatalf("bypass stats = %+v", st)
	}
	if c.ValidLines() != 0 {
		t.Fatal("bypass installed lines")
	}
}

func TestCrossCLOSEvictionAccounting(t *testing.T) {
	c := mustNew(t, Config{Sets: 1, Ways: 2, LineSize: 64})
	// Both CLOS share both ways.
	c.Access(0, 0, false)
	c.Access(0, 64, false)
	// CLOS 1 fills twice, displacing CLOS 0's lines.
	c.Access(1, 128, false)
	c.Access(1, 192, false)
	if got := c.Stats(1).EvictionsCaused; got != 2 {
		t.Fatalf("CLOS 1 caused %d evictions, want 2", got)
	}
	if got := c.Stats(0).EvictionsSuffered; got != 2 {
		t.Fatalf("CLOS 0 suffered %d evictions, want 2", got)
	}
}

func TestMoreWaysNeverHurtMissRatio(t *testing.T) {
	// Property: for a fixed access trace, widening the mask cannot increase
	// misses (LRU inclusion property within a set).
	trace := make([]uint64, 4000)
	r := stats.NewRNG(99)
	for i := range trace {
		trace[i] = uint64(r.Intn(64)) * 64 // 64 hot lines
	}
	prevMisses := ^uint64(0)
	for ways := 1; ways <= 8; ways *= 2 {
		c := mustNew(t, Config{Sets: 4, Ways: 8, LineSize: 64})
		c.SetMask(0, fullMask(ways))
		for _, a := range trace {
			c.Access(0, a, false)
		}
		m := c.Stats(0).Misses
		if m > prevMisses {
			t.Fatalf("misses increased from %d to %d when widening to %d ways", prevMisses, m, ways)
		}
		prevMisses = m
	}
}

func TestOccupancyBoundedByMaskProperty(t *testing.T) {
	f := func(seed uint64, maskRaw uint8) bool {
		cfg := Config{Sets: 8, Ways: 8, LineSize: 64}
		c, err := New(cfg)
		if err != nil {
			return false
		}
		mask := uint64(maskRaw)
		c.SetMask(0, mask)
		r := stats.NewRNG(seed)
		for i := 0; i < 2000; i++ {
			c.Access(0, uint64(r.Intn(4096))*64, r.Float64() < 0.3)
		}
		// Occupancy can never exceed sets × popcount(mask).
		limit := cfg.Sets * popcount(mask)
		return c.Occupancy(0) <= limit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func popcount(m uint64) int {
	n := 0
	for m != 0 {
		n += int(m & 1)
		m >>= 1
	}
	return n
}

func TestFlushAndResetStats(t *testing.T) {
	c := small(t)
	c.Access(0, 0, true)
	c.ResetStats()
	if st := c.Stats(0); st.Accesses() != 0 {
		t.Fatal("ResetStats did not clear counters")
	}
	if !c.Access(0, 0, false) {
		t.Fatal("ResetStats should preserve contents")
	}
	c.Flush()
	if c.Access(0, 0, false) {
		t.Fatal("Flush should invalidate contents")
	}
}

func TestLoadsStoresCounted(t *testing.T) {
	c := small(t)
	c.Access(0, 0, false)
	c.Access(0, 0, true)
	c.Access(0, 0, true)
	st := c.Stats(0)
	if st.Loads != 1 || st.Stores != 2 {
		t.Fatalf("loads=%d stores=%d, want 1/2", st.Loads, st.Stores)
	}
}

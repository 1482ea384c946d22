package cat_test

import (
	"math/bits"
	"testing"

	"stac/internal/cache"
	"stac/internal/cat"
	"stac/internal/stats"
	"stac/internal/workload"
)

// Metamorphic properties of the allocation algebra, checked over
// randomized inputs. These complement FuzzCATLayout (which explores the
// planner's parameter space byte-wise) with relations that tie the
// algebra to the cache simulator itself.

// TestPropertyShiftPreservesContiguity: translating a setting anywhere in
// the CBM space preserves legality and mask shape — Mask/FromMask commute
// with translation.
func TestPropertyShiftPreservesContiguity(t *testing.T) {
	r := stats.NewRNG(21)
	for trial := 0; trial < 2000; trial++ {
		length := 1 + r.Intn(16)
		off := r.Intn(cat.MaxWays - length + 1)
		s := cat.Setting{Offset: off, Length: length}
		maxShift := cat.MaxWays - (off + length)
		k := r.Intn(maxShift + 1)
		shifted := cat.Setting{Offset: off + k, Length: length}
		if err := shifted.Validate(cat.MaxWays); err != nil {
			t.Fatalf("shift by %d broke %v: %v", k, s, err)
		}
		if shifted.Mask() != s.Mask()<<uint(k) {
			t.Fatalf("mask of %v shifted by %d = %#x, want %#x",
				s, k, shifted.Mask(), s.Mask()<<uint(k))
		}
		back, err := cat.FromMask(shifted.Mask())
		if err != nil || back != shifted {
			t.Fatalf("FromMask(%#x) = %v, %v; want %v", shifted.Mask(), back, err, shifted)
		}
	}
}

// TestPropertyPrivateSharedPartitionBoost: for every random chain layout,
// each policy's private and shared way sets are disjoint and their union
// is exactly the boost CBM — Equation 1 partitions the allocation.
func TestPropertyPrivateSharedPartitionBoost(t *testing.T) {
	r := stats.NewRNG(22)
	for trial := 0; trial < 500; trial++ {
		n := 1 + r.Intn(6)
		priv := 1 + r.Intn(4)
		shared := r.Intn(4)
		total := n*priv + (n-1)*shared + r.Intn(8)
		if total > cat.MaxWays {
			total = cat.MaxWays
		}
		l, err := cat.PlanChain(total, n, priv, shared)
		if err != nil {
			t.Fatalf("feasible chain rejected: %v", err)
		}
		for i, p := range l.Policies {
			var privMask, sharedMask uint64
			for _, w := range l.Private(i) {
				privMask |= 1 << uint(w)
			}
			for _, w := range l.Shared(i) {
				sharedMask |= 1 << uint(w)
			}
			if privMask&sharedMask != 0 {
				t.Fatalf("policy %d private %#x overlaps shared %#x", i, privMask, sharedMask)
			}
			if got := privMask | sharedMask; got != p.Boost.Mask() {
				t.Fatalf("policy %d private∪shared %#x != boost CBM %#x", i, got, p.Boost.Mask())
			}
			if bits.OnesCount64(privMask) < priv {
				t.Fatalf("policy %d retains %d private ways, want ≥ %d",
					i, bits.OnesCount64(privMask), priv)
			}
		}
	}
}

// missesUnderMask replays one deterministic trace against a fresh LRU
// cache whose single CLOS mask is programmed before the first access.
func missesUnderMask(t *testing.T, cfg cache.Config, mask uint64, trace []workload.Access) uint64 {
	t.Helper()
	c, err := cache.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.SetMask(0, mask)
	for _, a := range trace {
		c.Access(0, a.Addr, a.Write)
	}
	return c.Stats(0).Misses
}

// TestPropertyMaskSupersetMissMonotonicity is the LRU stack (inclusion)
// property expressed over CAT masks: for a single CLOS whose mask is
// fixed before the trace starts, widening the mask can never increase
// the demand miss count on the same trace. True LRU admits the per-set
// inclusion argument (every access stamps a unique clock value, so
// recency is a strict order and the k-way content is a prefix of the
// k′-way content for k′ ≥ k); Random and PLRU famously do not, which is
// exactly why the simulator's default policy is LRU when modeling the
// paper's allocation sweeps.
func TestPropertyMaskSupersetMissMonotonicity(t *testing.T) {
	cfg := cache.Config{Sets: 32, Ways: 16, LineSize: 64, Replace: cache.ReplaceLRU}
	r := stats.NewRNG(23)
	kernels := workload.All()
	for trial := 0; trial < 40; trial++ {
		// Alternate paper kernels with uniform-random traces.
		var trace []workload.Access
		if trial%2 == 0 {
			pat := kernels[trial%len(kernels)].NewPattern(0)
			for i := 0; i < 4000; i++ {
				trace = append(trace, pat.Next(r))
			}
		} else {
			span := cfg.Sets * cfg.Ways * 2
			for i := 0; i < 4000; i++ {
				trace = append(trace, workload.Access{
					Addr:  uint64(r.Intn(span)) * 64,
					Write: r.Float64() < 0.3,
				})
			}
		}
		// Nested contiguous settings: inner ⊆ outer ⊆ full.
		innerLen := 1 + r.Intn(cfg.Ways-1)
		inner := cat.Setting{Offset: r.Intn(cfg.Ways - innerLen + 1), Length: innerLen}
		grow := r.Intn(cfg.Ways - innerLen + 1)
		outerOff := inner.Offset
		if d := r.Intn(grow + 1); d <= outerOff {
			outerOff -= d
		}
		outerLen := innerLen + grow
		if outerOff+outerLen > cfg.Ways {
			outerLen = cfg.Ways - outerOff
		}
		outer := cat.Setting{Offset: outerOff, Length: outerLen}
		if inner.Mask()&^outer.Mask() != 0 {
			t.Fatalf("trial %d: inner %v not within outer %v", trial, inner, outer)
		}

		mInner := missesUnderMask(t, cfg, inner.Mask(), trace)
		mOuter := missesUnderMask(t, cfg, outer.Mask(), trace)
		mFull := missesUnderMask(t, cfg, (uint64(1)<<uint(cfg.Ways))-1, trace)
		if mOuter > mInner {
			t.Fatalf("trial %d: widening %v→%v increased misses %d→%d",
				trial, inner, outer, mInner, mOuter)
		}
		if mFull > mOuter {
			t.Fatalf("trial %d: widening %v→full increased misses %d→%d",
				trial, outer, mOuter, mFull)
		}
	}
}

package cat

import (
	"errors"
	"fmt"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestSettingMask(t *testing.T) {
	cases := []struct {
		s    Setting
		want uint64
	}{
		{Setting{0, 1}, 0b1},
		{Setting{0, 2}, 0b11},
		{Setting{2, 3}, 0b11100},
		{Setting{5, 2}, 0b1100000},
	}
	for _, c := range cases {
		if got := c.s.Mask(); got != c.want {
			t.Errorf("%v.Mask() = %#b, want %#b", c.s, got, c.want)
		}
	}
}

func TestFromMaskRoundTrip(t *testing.T) {
	f := func(offRaw, lenRaw uint8) bool {
		off := int(offRaw % 32)
		length := int(lenRaw%32) + 1
		if off+length > MaxWays {
			return true
		}
		s := Setting{Offset: off, Length: length}
		got, err := FromMask(s.Mask())
		return err == nil && got == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFromMaskRejectsNonContiguous(t *testing.T) {
	for _, m := range []uint64{0, 0b101, 0b1001, 0b110011} {
		if _, err := FromMask(m); err == nil {
			t.Errorf("FromMask(%#b) accepted an illegal CBM", m)
		}
	}
}

func TestSettingValidate(t *testing.T) {
	cases := []struct {
		s       Setting
		ways    int
		wantErr bool
	}{
		{Setting{0, 2}, 20, false},
		{Setting{18, 2}, 20, false},
		{Setting{19, 2}, 20, true},
		{Setting{0, 0}, 20, true},
		{Setting{-1, 2}, 20, true},
		{Setting{0, 2}, 0, true},
	}
	for _, c := range cases {
		err := c.s.Validate(c.ways)
		if (err != nil) != c.wantErr {
			t.Errorf("%v.Validate(%d): err=%v, wantErr=%v", c.s, c.ways, err, c.wantErr)
		}
	}
}

func TestSTAPValidateBoostMustCoverDefault(t *testing.T) {
	p := STAP{
		Default: Setting{0, 2},
		Boost:   Setting{2, 4}, // does not include ways 0,1
	}
	if err := p.Validate(20); err == nil {
		t.Fatal("boost not covering default should be rejected")
	}
	p.Boost = Setting{0, 4}
	if err := p.Validate(20); err != nil {
		t.Fatalf("legal STAP rejected: %v", err)
	}
}

func TestPrivateAndShared(t *testing.T) {
	// Paper's example: A private {0,1}, B private {4,5}, shared {2,3}.
	l, err := PlanChain(6, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantPrivA := []int{0, 1}
	wantPrivB := []int{4, 5}
	wantShared := []int{2, 3}
	eq := func(a, b []int) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if got := l.Private(0); !eq(got, wantPrivA) {
		t.Errorf("Private(0) = %v, want %v", got, wantPrivA)
	}
	if got := l.Private(1); !eq(got, wantPrivB) {
		t.Errorf("Private(1) = %v, want %v", got, wantPrivB)
	}
	if got := l.Shared(0); !eq(got, wantShared) {
		t.Errorf("Shared(0) = %v, want %v", got, wantShared)
	}
	if got := l.Shared(1); !eq(got, wantShared) {
		t.Errorf("Shared(1) = %v, want %v", got, wantShared)
	}
}

// TestConjecturePrivateDisjoint property-tests the paper's first
// conjecture: under contiguous allocation, the private regions of chain
// layouts are pairwise disjoint.
func TestConjecturePrivateDisjoint(t *testing.T) {
	f := func(nRaw, privRaw, shRaw uint8) bool {
		n := int(nRaw%5) + 2
		priv := int(privRaw%3) + 1
		sh := int(shRaw % 4)
		total := n*priv + (n-1)*sh
		l, err := PlanChain(total, n, priv, sh)
		if err != nil {
			return true // infeasible configuration, skip
		}
		seen := map[int]int{}
		for i := range l.Policies {
			for _, w := range l.Private(i) {
				if prev, ok := seen[w]; ok && prev != i {
					return false
				}
				seen[w] = i
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestConjectureAtMostTwoSharers property-tests the second conjecture: if
// all policies include private cache, a short-term allocation shares cache
// with at most two other settings.
func TestConjectureAtMostTwoSharers(t *testing.T) {
	f := func(nRaw, privRaw, shRaw uint8) bool {
		n := int(nRaw%6) + 2
		priv := int(privRaw%3) + 1
		sh := int(shRaw%3) + 1
		total := n*priv + (n-1)*sh
		l, err := PlanChain(total, n, priv, sh)
		if err != nil {
			return true
		}
		for i, p := range l.Policies {
			if p.SharerCount(l.others(i)) > 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanPairErrors(t *testing.T) {
	if _, err := PlanChain(5, 2, 2, 2); err == nil {
		t.Error("a pair should fail when ways do not fit")
	}
	if _, err := PlanChain(10, 2, 0, 2); err == nil {
		t.Error("a pair should reject zero private ways")
	}
	if _, err := PlanChain(10, 2, 2, -1); err == nil {
		t.Error("a pair should reject negative shared ways")
	}
}

func TestPlanChainSingle(t *testing.T) {
	l, err := PlanChain(4, 1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Policies) != 1 {
		t.Fatalf("want 1 policy, got %d", len(l.Policies))
	}
	// A single workload has no sharers; boost equals default span.
	if got := l.Policies[0].Boost; got != (Setting{0, 2}) {
		t.Fatalf("single-workload boost = %v, want [0,2)", got)
	}
}

func TestPlanPoolBreaksTwoSharerBound(t *testing.T) {
	// With a shared pool, four workloads' boosts all overlap: the ≤2
	// sharers property of strictly pairwise contiguous layouts no longer
	// holds — the point of the §2 discussion about non-contiguous
	// sharing.
	l, err := PlanPool(12, 4, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range l.SharerCounts() {
		if c != 3 {
			t.Fatalf("pool policy %d shares with %d others, want 3 (n-1)", i, c)
		}
	}
	// Private regions must still be disjoint and non-empty.
	seen := map[int]int{}
	for i := range l.Policies {
		priv := l.Private(i)
		if len(priv) == 0 {
			t.Fatalf("policy %d lost its private ways", i)
		}
		for _, w := range priv {
			if prev, ok := seen[w]; ok {
				t.Fatalf("way %d private to both %d and %d", w, prev, i)
			}
			seen[w] = i
		}
	}
	// The construction requires masks real CAT rejects.
	if l.Contiguous() {
		t.Fatal("pool layout unexpectedly expressible with contiguous CBMs")
	}
	// A single workload bordering the pool IS contiguous.
	single, err := PlanPool(4, 1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !single.Contiguous() {
		t.Fatal("single-workload pool should be contiguous")
	}
}

func TestPlanPoolErrors(t *testing.T) {
	if _, err := PlanPool(6, 4, 2, 4); err == nil {
		t.Error("overcommitted pool accepted")
	}
	if _, err := PlanPool(12, 0, 2, 4); err == nil {
		t.Error("zero workloads accepted")
	}
	if _, err := PlanPool(12, 2, 2, 0); err == nil {
		t.Error("zero pool accepted")
	}
}

func TestChainSharerCountsAtMostTwo(t *testing.T) {
	l, err := PlanChain(20, 5, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range l.SharerCounts() {
		if c > 2 {
			t.Fatalf("chain policy %d shares with %d (>2)", i, c)
		}
	}
}

func TestLayoutValidateCatchesMissingPrivate(t *testing.T) {
	// Two policies with identical spans: nobody has private cache.
	l := Layout{
		TotalWays: 8,
		Policies: []STAP{
			{Default: Setting{0, 4}, Boost: Setting{0, 4}},
			{Default: Setting{0, 4}, Boost: Setting{0, 4}},
		},
	}
	if err := l.Validate(); err == nil {
		t.Fatal("layout without private ways should be rejected")
	}
}

// TestPlanChainAsymMatchesSymmetric: equal private widths must reproduce
// PlanChain exactly.
func TestPlanChainAsymMatchesSymmetric(t *testing.T) {
	want, err := PlanChain(20, 3, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := PlanChainAsym(20, []int{2, 2, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Policies) != len(want.Policies) {
		t.Fatalf("policy count %d != %d", len(got.Policies), len(want.Policies))
	}
	for i := range got.Policies {
		if got.Policies[i].Default != want.Policies[i].Default ||
			got.Policies[i].Boost != want.Policies[i].Boost {
			t.Fatalf("policy %d: got %+v want %+v", i, got.Policies[i], want.Policies[i])
		}
	}
}

func TestPlanChainAsymPair(t *testing.T) {
	// [ priv 5 | shared 3 | priv 12 ] on a 20-way LLC.
	l, err := PlanChainAsym(20, []int{5, 12}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Policies[0].Default; got != (Setting{0, 5}) {
		t.Fatalf("A default = %v", got)
	}
	if got := l.Policies[0].Boost; got != (Setting{0, 8}) {
		t.Fatalf("A boost = %v", got)
	}
	if got := l.Policies[1].Default; got != (Setting{8, 12}) {
		t.Fatalf("B default = %v", got)
	}
	if got := l.Policies[1].Boost; got != (Setting{5, 15}) {
		t.Fatalf("B boost = %v", got)
	}
	// Private ways stay disjoint and the shared span is contended by both.
	if priv := l.Private(0); len(priv) != 5 {
		t.Fatalf("A private ways = %v", priv)
	}
	if sh := l.Shared(0); len(sh) != 3 {
		t.Fatalf("A shared ways = %v", sh)
	}
}

func TestPlanChainAsymErrors(t *testing.T) {
	if _, err := PlanChainAsym(10, []int{5, 5}, 1); err == nil {
		t.Error("overfull layout accepted")
	}
	if _, err := PlanChainAsym(10, []int{0, 5}, 1); err == nil {
		t.Error("zero private span accepted")
	}
	if _, err := PlanChainAsym(10, nil, 1); err == nil {
		t.Error("empty layout accepted")
	}
	if _, err := PlanChainAsym(10, []int{2, 2}, -1); err == nil {
		t.Error("negative shared span accepted")
	}
}

// Private returns the private ways of policy i within the layout.
func (l Layout) Private(i int) []int { return l.Policies[i].Private(l.others(i)) }

// Shared returns the contended ways of policy i within the layout.
func (l Layout) Shared(i int) []int { return l.Policies[i].Shared(l.others(i)) }

// SharerCounts returns, for each policy, how many other policies its
// boost span overlaps — at most 2 for chain layouts (the §2 conjecture).
func (l Layout) SharerCounts() []int {
	out := make([]int, len(l.Policies))
	for i, p := range l.Policies {
		out[i] = p.SharerCount(l.others(i))
	}
	return out
}

// Private returns the ways only policy i's settings can touch.
func (l MaskLayout) Private(i int) []int {
	mask := l.Policies[i].Default & l.Policies[i].Boost
	for j, o := range l.Policies {
		if j != i {
			mask &^= o.Default | o.Boost
		}
	}
	return maskToWays(mask)
}

// SharerCounts returns, per policy, the number of other policies whose
// settings overlap its boost mask — n−1 for a pool layout.
func (l MaskLayout) SharerCounts() []int {
	out := make([]int, len(l.Policies))
	for i, p := range l.Policies {
		for j, o := range l.Policies {
			if j != i && p.Boost&(o.Default|o.Boost) != 0 {
				out[i]++
			}
		}
	}
	return out
}

// Contiguous reports whether every mask in the layout is a legal CAT CBM
// (single run of ones). Pool layouts with n > 1 generally are not.
func (l MaskLayout) Contiguous() bool {
	for _, p := range l.Policies {
		if _, err := FromMask(p.Default); err != nil {
			return false
		}
		if _, err := FromMask(p.Boost); err != nil {
			return false
		}
	}
	return true
}

// FromMask converts a capacity bitmask back into a Setting. It returns an
// error when the mask is empty or non-contiguous (which real CAT hardware
// rejects as well).
func FromMask(mask uint64) (Setting, error) {
	if mask == 0 {
		return Setting{}, errors.New("cat: empty capacity bitmask")
	}
	off := bits.TrailingZeros64(mask)
	length := bits.OnesCount64(mask)
	want := ((uint64(1) << uint(length)) - 1) << uint(off)
	if mask != want {
		return Setting{}, fmt.Errorf("cat: non-contiguous capacity bitmask %#x", mask)
	}
	return Setting{Offset: off, Length: length}, nil
}

// Shared computes the ways in p's boost setting that at least one other
// policy can also touch — the contention surface of short-term allocation.
func (p STAP) Shared(others []STAP) []int {
	var union uint64
	for _, o := range others {
		union |= o.Default.Mask() | o.Boost.Mask()
	}
	return maskToWays(p.Boost.Mask() & union)
}

// SharerCount returns, for policy p among all policies (p excluded from
// others), the number of distinct other policies whose settings overlap
// p's boost span. The paper proves that when every policy reserves private
// cache, this count is at most 2.
func (p STAP) SharerCount(others []STAP) int {
	n := 0
	for _, o := range others {
		if p.Boost.Mask()&(o.Default.Mask()|o.Boost.Mask()) != 0 {
			n++
		}
	}
	return n
}

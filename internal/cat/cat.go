// Package cat models Intel Cache Allocation Technology (CAT) allocation
// settings: contiguous spans of last-level-cache ways that a class of
// service (CLOS) may install data into.
//
// The paper ("Performance Modeling for Short-Term Cache Allocation",
// ICPP '22, §2) formalises an allocation setting as an (offset, length)
// pair over the LLC's ways, and a short-term allocation policy (STAP) as a
// triple (a, a′, t): a default setting a, a boosted setting a′ and a
// timeout t that triggers a temporary switch from a to a′. This package
// implements that algebra, including the private/shared region computation
// of Equation 1 and validation of the contiguity rules that Intel CAT
// enforces (capacity bitmasks must be a single run of consecutive 1 bits).
package cat

import (
	"fmt"
	"math/bits"
)

// MaxWays bounds the number of LLC ways this package supports; a uint64
// bitmask addresses each way. Real CAT hardware exposes at most 20-ish
// ways, so 64 is generous.
const MaxWays = 64

// Setting is one contiguous cache-way allocation: ways
// [Offset, Offset+Length).
type Setting struct {
	Offset int
	Length int
}

// Validate reports whether the setting is a legal CAT allocation on a cache
// with totalWays ways: non-empty, in range, and (by construction)
// contiguous.
func (s Setting) Validate(totalWays int) error {
	switch {
	case totalWays <= 0 || totalWays > MaxWays:
		return fmt.Errorf("cat: totalWays %d out of (0,%d]", totalWays, MaxWays)
	case s.Length <= 0:
		return fmt.Errorf("cat: setting length %d must be positive", s.Length)
	case s.Offset < 0:
		return fmt.Errorf("cat: setting offset %d must be non-negative", s.Offset)
	case s.Offset+s.Length > totalWays:
		return fmt.Errorf("cat: setting [%d,%d) exceeds %d ways", s.Offset, s.Offset+s.Length, totalWays)
	}
	return nil
}

// Mask returns the capacity bitmask (CBM) for the setting: bit i set means
// way i may be filled.
func (s Setting) Mask() uint64 {
	if s.Length <= 0 {
		return 0
	}
	return ((uint64(1) << uint(s.Length)) - 1) << uint(s.Offset)
}

// String renders the setting as "[offset,offset+length)".
func (s Setting) String() string {
	return fmt.Sprintf("[%d,%d)", s.Offset, s.Offset+s.Length)
}

// STAP is a short-term allocation policy (a, a′, t): run under Default,
// and when a query execution's time in system exceeds Timeout, switch its
// CLOS to Boost for the remainder of the execution.
//
// Timeout is expressed relative to the workload's expected service time,
// per §5.2 (Equation 4): a value of 1.5 triggers the boost once
// responsetime > 1.5 × expected service time. Timeout = 0 means "always
// boosted"; an effectively infinite timeout means "never boosted"
// (the paper sweeps 0 %–600 %).
type STAP struct {
	Default Setting
	Boost   Setting
	Timeout float64
}

// Validate checks both settings and that the boost is a superset-or-equal
// span of the default (short-term allocation grants additional ways; it
// never revokes the private ways the default guarantees).
func (p STAP) Validate(totalWays int) error {
	if err := p.Default.Validate(totalWays); err != nil {
		return fmt.Errorf("default: %w", err)
	}
	if err := p.Boost.Validate(totalWays); err != nil {
		return fmt.Errorf("boost: %w", err)
	}
	if p.Timeout < 0 {
		return fmt.Errorf("cat: negative timeout %v", p.Timeout)
	}
	if p.Default.Mask()&^p.Boost.Mask() != 0 {
		return fmt.Errorf("cat: boost %v does not cover default %v", p.Boost, p.Default)
	}
	return nil
}

// Private computes V(a,a′) of Equation 1 for policy p in the context of
// other policies: the ways present in both p.Default and p.Boost and in no
// other policy's settings. These are the ways that guarantee p's baseline
// performance.
func (p STAP) Private(others []STAP) []int {
	mask := p.Default.Mask() & p.Boost.Mask()
	for _, o := range others {
		mask &^= o.Default.Mask() | o.Boost.Mask()
	}
	return maskToWays(mask)
}

func maskToWays(mask uint64) []int {
	var ways []int
	for mask != 0 {
		w := bits.TrailingZeros64(mask)
		ways = append(ways, w)
		mask &^= 1 << uint(w)
	}
	return ways
}

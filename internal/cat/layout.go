package cat

import "fmt"

// Layout assigns each collocated workload a short-term allocation policy on
// a shared LLC: a private span for baseline performance plus a shared span
// adjacent to it that the boost setting may use. The planner mirrors the
// proxy-service scripts of §5: "if Jacobi is collocated with BFS, Jacobi
// could reserve private cache lines #1 & #2 and BFS could reserve cache
// lines #5 & #6. During short-term allocation, query executions for either
// or both services could use cache lines 3 & 4 in addition to their
// private cache."
type Layout struct {
	TotalWays int
	Policies  []STAP
}

// PlanChain builds a layout for n workloads in a chain, each with its own
// private span and a shared span between neighbours:
//
//	[ priv 0 | shared 0-1 | priv 1 | shared 1-2 | priv 2 | ... ]
//
// Each workload's boost setting extends over the shared spans adjacent to
// its private span (one for the ends of the chain, two in the middle) —
// the most sharing contiguous allocation permits while every workload
// keeps private cache (§2's second conjecture).
func PlanChain(totalWays, n, privateWays, sharedWays int) (Layout, error) {
	if n < 1 {
		return Layout{}, fmt.Errorf("cat: need at least one workload, got %d", n)
	}
	need := n*privateWays + (n-1)*sharedWays
	if privateWays <= 0 || sharedWays < 0 {
		return Layout{}, fmt.Errorf("cat: bad span sizes private=%d shared=%d", privateWays, sharedWays)
	}
	if need > totalWays {
		return Layout{}, fmt.Errorf("cat: layout needs %d ways, have %d", need, totalWays)
	}
	l := Layout{TotalWays: totalWays}
	stride := privateWays + sharedWays
	for i := 0; i < n; i++ {
		privOff := i * stride
		boostOff := privOff
		boostLen := privateWays
		if i > 0 { // shared span with the left neighbour
			boostOff -= sharedWays
			boostLen += sharedWays
		}
		if i < n-1 { // shared span with the right neighbour
			boostLen += sharedWays
		}
		l.Policies = append(l.Policies, STAP{
			Default: Setting{Offset: privOff, Length: privateWays},
			Boost:   Setting{Offset: boostOff, Length: boostLen},
		})
	}
	if err := l.Validate(); err != nil {
		return Layout{}, err
	}
	return l, nil
}

// PlanChainAsym builds the chain layout with per-workload private span
// widths:
//
//	[ priv[0] | shared | priv[1] | shared | ... | priv[n-1] ]
//
// The symmetric PlanChain is the special case where every priv[i] is
// equal. Asymmetric spans let a policy search shift capacity toward the
// cache-hungrier workload while both keep private ways — the plan space
// the surrogate-driven `stac search` sweeps.
func PlanChainAsym(totalWays int, privs []int, sharedWays int) (Layout, error) {
	n := len(privs)
	if n < 1 {
		return Layout{}, fmt.Errorf("cat: need at least one workload")
	}
	if sharedWays < 0 {
		return Layout{}, fmt.Errorf("cat: negative shared span %d", sharedWays)
	}
	need := (n - 1) * sharedWays
	for i, p := range privs {
		if p <= 0 {
			return Layout{}, fmt.Errorf("cat: workload %d private span %d must be positive", i, p)
		}
		need += p
	}
	if need > totalWays {
		return Layout{}, fmt.Errorf("cat: layout needs %d ways, have %d", need, totalWays)
	}
	l := Layout{TotalWays: totalWays}
	off := 0
	for i, p := range privs {
		privOff := off
		boostOff := privOff
		boostLen := p
		if i > 0 {
			boostOff -= sharedWays
			boostLen += sharedWays
		}
		if i < n-1 {
			boostLen += sharedWays
		}
		l.Policies = append(l.Policies, STAP{
			Default: Setting{Offset: privOff, Length: p},
			Boost:   Setting{Offset: boostOff, Length: boostLen},
		})
		off += p + sharedWays
	}
	if err := l.Validate(); err != nil {
		return Layout{}, err
	}
	return l, nil
}

// MaskPolicy is a short-term allocation policy expressed as raw capacity
// bitmasks rather than contiguous spans. Real Intel CAT rejects
// non-contiguous CBMs; this type exists for the §2 discussion of
// non-contiguous allocation ("sharing cache in this way is also relevant
// to non-contiguous cache allocation"), which research proposals support.
type MaskPolicy struct {
	Default uint64
	Boost   uint64
}

// MaskLayout is a layout over raw masks.
type MaskLayout struct {
	TotalWays int
	Policies  []MaskPolicy
}

// PlanPool builds the pooled layout the chain construction cannot
// express with contiguous masks while preserving private ways:
//
//	[ pool | priv 0 | priv 1 | ... | priv n-1 ]
//
// Every workload's boost mask is {pool ∪ its private span} — a
// non-contiguous CBM whenever the private span does not border the pool.
// The construction demonstrates why the paper's ≤2-sharers property is
// an artefact of contiguity: here every boost shares the pool with all
// n−1 other workloads.
func PlanPool(totalWays, n, privateWays, poolWays int) (MaskLayout, error) {
	if n < 1 {
		return MaskLayout{}, fmt.Errorf("cat: need at least one workload, got %d", n)
	}
	if privateWays <= 0 || poolWays <= 0 {
		return MaskLayout{}, fmt.Errorf("cat: bad span sizes private=%d pool=%d", privateWays, poolWays)
	}
	need := n*privateWays + poolWays
	if need > totalWays {
		return MaskLayout{}, fmt.Errorf("cat: layout needs %d ways, have %d", need, totalWays)
	}
	pool := Setting{Offset: 0, Length: poolWays}.Mask()
	l := MaskLayout{TotalWays: totalWays}
	for i := 0; i < n; i++ {
		priv := Setting{Offset: poolWays + i*privateWays, Length: privateWays}.Mask()
		l.Policies = append(l.Policies, MaskPolicy{Default: priv, Boost: priv | pool})
	}
	return l, nil
}

// Validate checks every policy and that each workload actually retains
// private ways (Equation 1 non-empty) under the layout.
func (l Layout) Validate() error {
	for i, p := range l.Policies {
		if err := p.Validate(l.TotalWays); err != nil {
			return fmt.Errorf("policy %d: %w", i, err)
		}
	}
	for i, p := range l.Policies {
		if len(p.Private(l.others(i))) == 0 {
			return fmt.Errorf("cat: policy %d has no private ways", i)
		}
	}
	return nil
}

// others returns all policies except index i.
func (l Layout) others(i int) []STAP {
	out := make([]STAP, 0, len(l.Policies)-1)
	for j, p := range l.Policies {
		if j != i {
			out = append(out, p)
		}
	}
	return out
}

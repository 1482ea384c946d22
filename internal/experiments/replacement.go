package experiments

import (
	"fmt"

	"stac/internal/cache"
	"stac/internal/cat"
	"stac/internal/stats"
	"stac/internal/testbed"
	"stac/internal/workload"
)

func init() {
	register("replacement", ReplacementAblation)
}

// ReplacementAblation quantifies a design choice DESIGN.md calls out: the
// LLC simulator assumes exact LRU replacement, while real Xeons implement
// pseudo-LRU variants. The ablation measures each workload's solo miss
// behaviour under exact LRU, bit-PLRU and random replacement at a six-way
// allocation (narrow masks leave replacement no freedom). Bit-PLRU tracks
// LRU within a few percent everywhere, so pseudo-LRU hardware would not
// change the miss-curve shapes the models learn. Random replacement can
// even *help* Zipf-skewed workloads (it is scan-resistant where LRU
// thrashes on the cold tail) — the classic LRU pathology.
func ReplacementAblation(opts Options) (*Report, error) {
	opts = opts.defaults()
	const accesses = 60000
	policies := []cache.Replacement{cache.ReplaceLRU, cache.ReplaceBitPLRU, cache.ReplaceRandom}

	rep := &Report{
		ID:      "replacement",
		Title:   "LLC replacement-policy ablation: memory accesses per access (6-way allocation)",
		Columns: []string{"workload", "LRU", "bit-PLRU", "random"},
	}
	var worstPLRUDelta float64
	for _, k := range workload.All() {
		row := []string{k.Name}
		var lruFrac float64
		for pi, pol := range policies {
			frac, err := replacementMissFrac(k, pol, accesses, opts.Seed)
			if err != nil {
				return nil, err
			}
			if pi == 0 {
				lruFrac = frac
			}
			if pi == 1 && lruFrac > 0.01 {
				delta := frac/lruFrac - 1
				if delta > worstPLRUDelta {
					worstPLRUDelta = delta
				}
			}
			row = append(row, pct(frac))
		}
		rep.Rows = append(rep.Rows, row)
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("worst bit-PLRU deviation from exact LRU: %+.1f%%", 100*worstPLRUDelta),
		"bit-PLRU tracks LRU closely (design robustness); random replacement reshuffles Zipf-skewed workloads",
	)
	return rep, nil
}

func replacementMissFrac(k workload.Kernel, pol cache.Replacement, accesses int, seed uint64) (float64, error) {
	proc := testbed.XeonE5_2683()
	hc := proc.HierarchyConfig()
	hc.LLC.Replace = pol
	h, err := cache.NewHierarchy(hc)
	if err != nil {
		return 0, err
	}
	h.SetMask(0, cat.Setting{Offset: 0, Length: 6}.Mask())
	r := stats.NewRNG(seed)
	pat := k.NewPattern(1 << 30)
	for i := 0; i < accesses; i++ {
		a := pat.Next(r)
		h.Access(0, 0, a.Addr, a.Write)
	}
	return float64(h.LLC().Stats(0).Misses) / float64(accesses), nil
}

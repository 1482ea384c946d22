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
	register("table1", Table1)
	register("table2", Table2)
}

// Table1 characterises the eight benchmark kernels: each runs solo under
// its baseline allocation while the harness measures LLC miss ratio and a
// data-reuse proxy (fraction of unique lines touched). The measured
// classes must reproduce Table 1's qualitative descriptions — that check
// lives in the experiment's test.
func Table1(opts Options) (*Report, error) {
	opts = opts.defaults()
	proc := testbed.XeonE5_2683()
	rep := &Report{
		ID:      "table1",
		Title:   "Benchmark cache-access characterisation (solo, baseline allocation)",
		Columns: []string{"workload", "mem accesses/access", "unique-line frac", "paper description"},
	}
	const accesses = 60000
	for _, k := range workload.All() {
		miss, uniq, err := characterise(proc, k, accesses, opts.Seed)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, []string{
			k.Name, pct(miss), pct(uniq), k.CachePattern,
		})
	}
	rep.Notes = append(rep.Notes,
		"unique-line frac: distinct cache lines touched / accesses (lower = more data reuse)",
		"expected orderings per Table 1: knn,kmeans reuse > bfs,jacobi > redis,spstream; redis/spstream miss most")
	return rep, nil
}

// characterise measures a kernel's solo cache behaviour under the default
// two-way allocation. The miss metric is memory accesses per program
// access — misses that travel all the way to DRAM — which is what
// Table 1's "cache misses" mean in practice (LLC-local miss ratios are
// confounded by L1/L2 filtering).
func characterise(proc testbed.Processor, k workload.Kernel, accesses int, seed uint64) (memFrac, uniqueFrac float64, err error) {
	h, err := cache.NewHierarchy(proc.HierarchyConfig())
	if err != nil {
		return 0, 0, err
	}
	alloc := cat.Setting{Offset: 0, Length: 2}
	h.SetMask(0, alloc.Mask())
	r := stats.NewRNG(seed)
	pat := k.NewPattern(1 << 30)
	seen := make(map[uint64]struct{})
	for i := 0; i < accesses; i++ {
		a := pat.Next(r)
		h.Access(0, 0, a.Addr, a.Write)
		seen[a.Addr>>6] = struct{}{}
	}
	llc := h.LLC().Stats(0)
	return float64(llc.Misses) / float64(accesses), float64(len(seen)) / float64(accesses), nil
}

// Table2 enumerates the runtime-condition space the profiler samples —
// the paper's Table 2.
func Table2(opts Options) (*Report, error) {
	names := ""
	for i, n := range workload.Names() {
		if i > 0 {
			names += ", "
		}
		names += n
	}
	return &Report{
		ID:      "table2",
		Title:   "Runtime conditions studied",
		Columns: []string{"condition", "supported settings"},
		Rows: [][]string{
			{"collocated services sharing cache lines", names},
			{"query inter-arrival rate (rel. to service time)", "25% - 95%"},
			{"timeout policy (rel. to service time)", "0% (always use shared cache) - 600% (never)"},
			{"cache usage sampling", "1 Hz - every 5 seconds (scaled to service time)"},
			{"processors", fmt.Sprintf("%d Xeon models (20-72 MB LLC)", len(testbed.Processors()))},
		},
	}, nil
}

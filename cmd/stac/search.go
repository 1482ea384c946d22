package main

import (
	"flag"
	"fmt"
	"time"

	"stac"
)

// cmdSearch runs the surrogate fast path: enumerate every CAT mask plan
// for a collocated pair (asymmetric layouts × the paper's timeout grid),
// rank them with the analytical cache model + queueing simulator, and
// re-validate the top candidates on the full packed simulator.
func cmdSearch(args []string) error {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	aName := fs.String("a", "redis", "first kernel")
	bName := fs.String("b", "social", "second kernel")
	load := fs.Float64("load", 0.9, "utilisation for both services (ρ)")
	topk := fs.Int("topk", 5, "plans to show and validate")
	validate := fs.Bool("validate", true, "re-measure the top plans on the full testbed")
	queries := fs.Int("queries", 150, "validation run length (queries per service)")
	accesses := fs.Int("accesses", 40000, "miss-ratio trace length per kernel")
	seed := fs.Uint64("seed", 1, "random seed")
	registerObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *topk < 0 {
		return fmt.Errorf("search: -topk must be non-negative, got %d", *topk)
	}
	if err := startObs(); err != nil {
		return err
	}

	ka, err := stac.WorkloadByName(*aName)
	if err != nil {
		return err
	}
	kb, err := stac.WorkloadByName(*bName)
	if err != nil {
		return err
	}

	cfg := stac.SearchConfig{
		KernelA: ka, KernelB: kb,
		LoadA: *load, LoadB: *load,
		Accesses: *accesses, Seed: *seed,
	}
	setupStart := time.Now()
	s, err := stac.NewSearcher(cfg)
	if err != nil {
		return err
	}
	setup := time.Since(setupStart)

	plans := s.EnumeratePlans()
	searchStart := time.Now()
	ranked, err := s.Search(plans)
	if err != nil {
		return err
	}
	elapsed := time.Since(searchStart)
	fmt.Printf("%s + %s at load %.2f: %d plans\n", ka.Name, kb.Name, *load, len(plans))
	fmt.Printf("setup %v, search %v (%v/plan, %d fresh queueing sims)\n",
		setup.Round(time.Millisecond), elapsed.Round(time.Millisecond),
		(elapsed / time.Duration(len(plans))).Round(time.Microsecond), s.SimRuns())

	k := *topk
	if k > len(ranked) {
		k = len(ranked)
	}
	fmt.Printf("\n%-4s %-26s %10s %10s %10s\n", "rank", "plan [a|shared|b]", "score", "speedupA", "speedupB")
	for i := 0; i < k; i++ {
		ev := ranked[i]
		fmt.Printf("%-4d %-26s %10.2f %10.2f %10.2f\n",
			i+1, ev.Plan.String(), ev.Score, ev.Speedup[0], ev.Speedup[1])
	}

	if *validate {
		fmt.Printf("\nvalidating top %d on the full testbed (%d queries/service)...\n", k, *queries)
		vals, err := s.Validate(ranked, k, *queries)
		if err != nil {
			return err
		}
		fmt.Printf("%-4s %-26s %10s %12s %12s\n", "rank", "plan [a|shared|b]", "predicted", "measured", "meas-speedup")
		for i, v := range vals {
			fmt.Printf("%-4d %-26s %10.2f %12.2f %5.2fx/%5.2fx\n",
				i+1, v.Plan.String(), v.Score, v.MeasuredScore,
				v.MeasuredSpeedup[0], v.MeasuredSpeedup[1])
		}
	}
	return nil
}

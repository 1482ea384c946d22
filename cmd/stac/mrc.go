package main

import (
	"flag"
	"fmt"

	"stac"
	"stac/internal/mrc"
)

// cmdMRC prints exact fully-associative LRU miss-ratio curves for the
// benchmark workloads, computed with Mattson's stack-distance algorithm.
func cmdMRC(args []string) error {
	fs := flag.NewFlagSet("mrc", flag.ExitOnError)
	accesses := fs.Int("accesses", 40000, "trace length per workload")
	seed := fs.Uint64("seed", 1, "random seed")
	registerObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := startObs(); err != nil {
		return err
	}

	capacities := []int{256, 512, 1024, 2048, 4096} // lines (16KiB-256KiB)
	fmt.Printf("%-10s", "workload")
	for _, c := range capacities {
		fmt.Printf("  %6dKiB", c*64/1024)
	}
	fmt.Println("   (fully-associative LRU miss ratio)")

	for _, k := range stac.Workloads() {
		curve, err := mrc.KernelCurve(k, 64, *accesses, *seed)
		if err != nil {
			return err
		}
		fmt.Printf("%-10s", k.Name)
		for _, v := range curve.At(capacities) {
			fmt.Printf("  %8.1f%%", 100*v)
		}
		fmt.Println()
	}
	return nil
}

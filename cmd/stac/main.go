// Command stac is the command-line front end of the short-term cache
// allocation reproduction. It can regenerate every table and figure of
// the paper's evaluation, run the full profile→train→search pipeline on
// a chosen collocation, and inspect the benchmark workloads.
//
// Usage:
//
//	stac experiment <id|all> [-seed N] [-workers N]
//	stac pipeline -a <kernel> -b <kernel> [-points N] [-load ρ] [-seed N] [-workers N]
//	stac search -a <kernel> -b <kernel> [-topk N] [-accesses N] [-validate]
//	stac workloads
//	stac list
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"stac"
	"stac/internal/experiments"
)

func main() {
	// Global observability flags may precede the subcommand; flag parsing
	// stops at the first non-flag argument, which is the subcommand name.
	global := flag.NewFlagSet("stac", flag.ContinueOnError)
	global.Usage = usage
	registerObsFlags(global)
	if err := global.Parse(os.Args[1:]); err != nil {
		if err == flag.ErrHelp {
			return
		}
		os.Exit(2)
	}
	args := global.Args()
	if len(args) < 1 {
		usage()
		os.Exit(2)
	}
	err := startObs()
	if err == nil {
		switch args[0] {
		case "experiment":
			err = cmdExperiment(args[1:])
		case "pipeline":
			err = cmdPipeline(args[1:])
		case "profile":
			err = cmdProfile(args[1:])
		case "train":
			err = cmdTrain(args[1:])
		case "predict":
			err = cmdPredict(args[1:])
		case "mrc":
			err = cmdMRC(args[1:])
		case "search":
			err = cmdSearch(args[1:])
		case "serve":
			err = cmdServe(args[1:])
		case "loadtest":
			err = cmdLoadtest(args[1:])
		case "fleet":
			err = cmdFleet(args[1:])
		case "workloads":
			err = cmdWorkloads()
		case "list":
			for _, id := range experiments.IDs() {
				fmt.Println(id)
			}
		case "help":
			usage()
		default:
			fmt.Fprintf(os.Stderr, "stac: unknown command %q\n", args[0])
			usage()
			os.Exit(2)
		}
	}
	if ferr := finishObs(); err == nil {
		err = ferr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "stac: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  stac experiment <id|all> [-seed N] [-workers N]  regenerate paper tables/figures
  stac pipeline -a <kernel> -b <kernel> [flags]    run profile -> train -> search -> evaluate
  stac profile -a <kernel> -b <kernel> -out <f>    collect a profiling dataset to disk
  stac train -in <dataset> -model <f>              train a deep-forest EA model
  stac predict -in <dataset> -model <f> [flags]    predict response time for a scenario
  stac mrc [-accesses N]                           exact LRU miss-ratio curves per workload
  stac search -a <kernel> -b <kernel> [flags]      surrogate sweep of all CAT mask plans
  stac serve -model <f> -data <f> [flags]          HTTP prediction server with hot reload
  stac loadtest [-addr url | -model <f> -data <f>] drive a serving stack, report QPS + tails
  stac fleet [-scenario s] [-policy p] [flags]     simulate a multi-node fleet with routed traffic
  stac workloads                                   list the Table 1 benchmark kernels
  stac list                                        list experiment ids

observability flags (before the subcommand or among its flags):
  -metrics <path>   write a JSON metrics snapshot on exit
  -pprof <addr>     serve net/http/pprof (e.g. localhost:6060)
  -trace <path>     write a runtime execution trace`)
}

func cmdExperiment(args []string) error {
	ids, opts, err := parseExperimentArgs(args)
	if err != nil {
		return err
	}
	if err := startObs(); err != nil {
		return err
	}
	for _, id := range ids {
		rep, err := experiments.Run(id, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if err := rep.Render(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

// parseExperimentArgs splits experiment ids (which may precede flags)
// from the -seed/-workers options and expands the "all" alias.
func parseExperimentArgs(args []string) ([]string, experiments.Options, error) {
	fs := flag.NewFlagSet("experiment", flag.ContinueOnError)
	seed := fs.Uint64("seed", 2022, "random seed")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0),
		"parallel workers; results are identical at any count (1 = sequential)")
	registerObsFlags(fs)
	var ids []string
	rest := args
	for len(rest) > 0 && rest[0][0] != '-' {
		ids = append(ids, rest[0])
		rest = rest[1:]
	}
	if err := fs.Parse(rest); err != nil {
		return nil, experiments.Options{}, err
	}
	if len(ids) == 0 {
		return nil, experiments.Options{}, fmt.Errorf("experiment id required (or 'all'); see 'stac list'")
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = experiments.IDs()
	}
	return ids, experiments.Options{Seed: *seed, Workers: *workers}, nil
}

func cmdPipeline(args []string) error {
	fs := flag.NewFlagSet("pipeline", flag.ExitOnError)
	aName := fs.String("a", "redis", "first kernel")
	bName := fs.String("b", "bfs", "second kernel")
	points := fs.Int("points", 30, "profiling conditions")
	load := fs.Float64("load", 0.9, "evaluation load (ρ)")
	seed := fs.Uint64("seed", 1, "random seed")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0),
		"parallel workers; results are identical at any count (1 = sequential)")
	registerObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
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

	fmt.Printf("profiling %s + %s over %d conditions...\n", ka.Name, kb.Name, *points)
	ds, err := stac.Profile(stac.ProfileOptions{
		KernelA: ka, KernelB: kb, Points: *points, Seed: *seed, Workers: *workers,
	})
	if err != nil {
		return err
	}
	fmt.Printf("collected %d profile rows\n", ds.Len())

	fmt.Println("training deep-forest pipeline...")
	pred, err := stac.Train(ds, stac.TrainOptions{Seed: *seed + 1, Workers: *workers})
	if err != nil {
		return err
	}

	sa, err := stac.NewScenario(ds, ka.Name, *load, *load)
	if err != nil {
		return err
	}
	sb, err := stac.NewScenario(ds, kb.Name, *load, *load)
	if err != nil {
		return err
	}
	decision, err := stac.FindPolicy(pred, sa, sb)
	if err != nil {
		return err
	}
	fmt.Printf("model-driven policy: timeout(%s)=%.2g timeout(%s)=%.2g (x service time)\n",
		ka.Name, decision.TimeoutA, kb.Name, decision.TimeoutB)

	ctx := stac.PairContext{KernelA: ka, KernelB: kb, LoadA: *load, LoadB: *load, Seed: *seed + 2}
	sp, err := stac.EvaluatePolicy(ctx, decision)
	if err != nil {
		return err
	}
	fmt.Printf("p95 speedup vs no-sharing: %s %.2fx, %s %.2fx\n", ka.Name, sp[0], kb.Name, sp[1])
	return nil
}

func cmdWorkloads() error {
	fmt.Printf("%-10s %-14s %s\n", "name", "working set", "cache pattern")
	for _, k := range stac.Workloads() {
		fmt.Printf("%-10s %6d KiB     %s\n", k.Name, k.WorkingSet/1024, k.CachePattern)
	}
	return nil
}

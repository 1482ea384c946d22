package main

import (
	"flag"
	"fmt"
	"os"

	"stac"
	"stac/internal/core"
	"stac/internal/deepforest"
	"stac/internal/profile"
	"stac/internal/stats"
)

// cmdProfile collects a profiling dataset and writes it to disk.
func cmdProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	aName := fs.String("a", "redis", "first kernel")
	bName := fs.String("b", "bfs", "second kernel")
	points := fs.Int("points", 40, "profiling conditions")
	queries := fs.Int("queries", 100, "measured queries per condition")
	uniform := fs.Bool("uniform", false, "uniform instead of stratified sampling")
	seed := fs.Uint64("seed", 1, "random seed")
	out := fs.String("out", "profile.json.gz", "output dataset path")
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
	ds, err := stac.Profile(stac.ProfileOptions{
		KernelA: ka, KernelB: kb, Points: *points,
		QueriesPerCondition: *queries, UseUniform: *uniform, Seed: *seed,
	})
	if err != nil {
		return err
	}
	if err := ds.SaveFile(*out); err != nil {
		return err
	}
	fmt.Printf("wrote %d profile rows to %s\n", ds.Len(), *out)
	return nil
}

// cmdTrain trains a deep-forest EA model from a stored dataset.
func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	in := fs.String("in", "profile.json.gz", "input dataset path")
	out := fs.String("model", "model.gob", "output model path")
	paper := fs.Bool("paper", false, "paper-faithful deep-forest configuration (slow)")
	seed := fs.Uint64("seed", 1, "random seed")
	registerObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := startObs(); err != nil {
		return err
	}
	ds, err := profile.LoadFile(*in)
	if err != nil {
		return err
	}
	spec := core.MatrixSpec(ds.Schema)
	cfg := deepforest.FastConfig(spec)
	if *paper {
		cfg = deepforest.DefaultConfig(spec)
	}
	model, err := core.TrainDeepForestEA(ds, cfg, stats.NewRNG(*seed))
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := model.Save(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("trained deep forest on %d rows -> %s\n", ds.Len(), *out)
	return nil
}

// cmdPredict loads a dataset + model and predicts one scenario.
func cmdPredict(args []string) error {
	fs := flag.NewFlagSet("predict", flag.ExitOnError)
	in := fs.String("in", "profile.json.gz", "profiling dataset (library)")
	modelPath := fs.String("model", "model.gob", "trained model path")
	service := fs.String("service", "redis", "service to predict for")
	load := fs.Float64("load", 0.9, "arrival load ρ")
	timeout := fs.Float64("timeout", 1.0, "STAP timeout (x service time)")
	partnerLoad := fs.Float64("partner-load", 0.9, "partner load")
	partnerTimeout := fs.Float64("partner-timeout", 1.0, "partner timeout")
	registerObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := startObs(); err != nil {
		return err
	}
	ds, err := profile.LoadFile(*in)
	if err != nil {
		return err
	}
	f, err := os.Open(*modelPath)
	if err != nil {
		return err
	}
	defer f.Close()
	model, err := deepforest.LoadModel(f)
	if err != nil {
		return err
	}
	pred, err := core.NewPredictor(model, ds, 2, 0)
	if err != nil {
		return err
	}
	scen, err := stac.NewScenario(ds, *service, *load, *partnerLoad)
	if err != nil {
		return err
	}
	scen.Timeout = *timeout
	scen.PartnerTimeout = *partnerTimeout
	p, err := pred.PredictResponse(scen)
	if err != nil {
		return err
	}
	fmt.Printf("%s @ load %.2f, timeout %.2gx (partner %.2f/%.2gx):\n",
		*service, *load, *timeout, *partnerLoad, *partnerTimeout)
	fmt.Printf("  effective allocation  %.3f\n", p.EA)
	fmt.Printf("  mean response         %.4g s\n", p.MeanResponse)
	fmt.Printf("  p95 response          %.4g s\n", p.P95Response)
	fmt.Printf("  mean queueing delay   %.4g s\n", p.QueueDelay)
	fmt.Printf("  boosted fraction      %.0f%%\n", 100*p.BoostedFrac)
	return nil
}

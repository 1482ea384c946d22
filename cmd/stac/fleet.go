package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"stac/internal/fleet"
	"stac/internal/obs"
)

// cmdFleet runs a cluster-scale scenario: N heterogeneous machines
// behind a routing policy, with optional model-driven migration.
func cmdFleet(args []string) error {
	fs := flag.NewFlagSet("fleet", flag.ExitOnError)
	scenario := fs.String("scenario", "static",
		"scenario: "+strings.Join(fleet.ScenarioNames(), "|"))
	policy := fs.String("policy", "", "override routing policy (round-robin|least-loaded|p2c|locality)")
	epochs := fs.Int("epochs", 0, "override number of epochs")
	migrate := fs.Bool("migrate", false, "enable or disable the model-driven migrator (default: scenario's setting)")
	seed := fs.Uint64("seed", 1, "random seed")
	workers := fs.Int("workers", 0, "concurrent node simulations (0 = GOMAXPROCS)")
	jsonOut := fs.String("json", "", "write the full result as JSON to this path ('-' = stdout)")
	registerObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := startObs(); err != nil {
		return err
	}

	cfg, err := fleet.ScenarioByName(*scenario, *seed)
	if err != nil {
		return err
	}
	if *policy != "" {
		p, err := fleet.PolicyByName(*policy)
		if err != nil {
			return err
		}
		cfg.Policy = p
	}
	if *epochs > 0 {
		cfg.Epochs = *epochs
	}
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "migrate" {
			cfg.Migrate = *migrate
		}
	})
	cfg.Workers = *workers

	// The plan counters, unlike the node-run ones, do not depend on
	// scheduling, so the line repeats across runs and worker counts.
	plans, dropped := obs.C("fleet/speculative_plans"), obs.C("fleet/speculative_plans_discarded")
	plans0, dropped0 := plans.Load(), dropped.Load()
	res, err := fleet.Run(cfg)
	if err != nil {
		return err
	}
	printFleet(res, *scenario)
	fmt.Printf("  speculative epochs: %d routed ahead, %d discarded\n",
		plans.Load()-plans0, dropped.Load()-dropped0)

	if *jsonOut != "" {
		buf, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		buf = append(buf, '\n')
		if *jsonOut == "-" {
			_, err = os.Stdout.Write(buf)
			return err
		}
		if err := os.WriteFile(*jsonOut, buf, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
	return nil
}

func printFleet(res *fleet.Result, scenario string) {
	fmt.Printf("fleet %s: policy=%s epochs=%d epoch_len=%.4gs queries=%d\n",
		scenario, res.Policy, res.Epochs, res.EpochLen, res.Queries)
	fmt.Printf("  fleet p95 %.4gs  mean %.4gs  truncated runs %d\n",
		res.FleetP95, res.FleetMean, res.Truncated)

	fmt.Println("  node       queries      p95        mean   max-backlog  routed")
	for _, n := range res.Nodes {
		keys := make([]string, 0, len(n.Routed))
		for k := range n.Routed {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, 0, len(keys))
		for _, k := range keys {
			parts = append(parts, fmt.Sprintf("%s:%d", k, n.Routed[k]))
		}
		fmt.Printf("  %-10s %7d  %9.3g  %9.3g  %10.3g   %s\n",
			n.Name, n.Queries, n.P95, n.Mean, n.MaxBacklog, strings.Join(parts, " "))
	}

	fmt.Println("  service    queries      p95        sla    moves  nodes")
	for _, s := range res.Services {
		flag := " "
		if s.P95 > s.SLA {
			flag = "!"
		}
		fmt.Printf("  %-10s %7d  %9.3g%s %9.3g  %5d  %s\n",
			s.Name, s.Queries, s.P95, flag, s.SLA, s.Migrations, strings.Join(s.FinalNodes, ","))
	}

	if len(res.Migrations) > 0 {
		fmt.Println("  migrations:")
		for _, m := range res.Migrations {
			fmt.Printf("    epoch %d  %-10s %s -> %s  (%s, predicted %.3g -> %.3g, sla %.3g)\n",
				m.Epoch, m.Service, m.From, m.To, m.Reason, m.PredictedFrom, m.PredictedTo, m.SLA)
		}
	}
}

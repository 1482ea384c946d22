package main

import (
	"strings"
	"testing"

	"stac/internal/experiments"
)

func TestParseExperimentArgs(t *testing.T) {
	ids, opts, err := parseExperimentArgs([]string{"fig6", "-seed", "7", "-workers", "3"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != "fig6" {
		t.Fatalf("ids = %v", ids)
	}
	if opts.Seed != 7 || opts.Workers != 3 {
		t.Fatalf("opts = %+v", opts)
	}
}

func TestParseExperimentArgsMultipleIDs(t *testing.T) {
	ids, opts, err := parseExperimentArgs([]string{"table1", "table2"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("ids = %v", ids)
	}
	if opts.Seed != 2022 {
		t.Fatalf("default seed = %v", opts.Seed)
	}
}

func TestParseExperimentArgsAll(t *testing.T) {
	ids, _, err := parseExperimentArgs([]string{"all"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(experiments.IDs()) {
		t.Fatalf("all expanded to %d ids, want %d", len(ids), len(experiments.IDs()))
	}
}

func TestParseExperimentArgsEmpty(t *testing.T) {
	if _, _, err := parseExperimentArgs(nil); err == nil {
		t.Fatal("missing id accepted")
	}
}

// TestCmdSearchSmoke drives the surrogate search subcommand end to end on
// a reduced validation length; it must rank the full plan space and
// validate without error.
func TestCmdSearchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("search smoke is a few seconds")
	}
	if err := cmdSearch([]string{"-a", "redis", "-b", "bfs", "-topk", "2", "-queries", "60"}); err != nil {
		t.Fatal(err)
	}
}

// TestCmdSearchRejectsNegativeTopK is a regression test: -topk -1 used to
// sweep every plan, run the baseline on the testbed and then panic in
// Searcher.Validate. It must fail fast with an error instead.
func TestCmdSearchRejectsNegativeTopK(t *testing.T) {
	err := cmdSearch([]string{"-a", "redis", "-b", "bfs", "-topk", "-1"})
	if err == nil || !strings.Contains(err.Error(), "-topk") {
		t.Fatalf("err = %v, want an error naming -topk", err)
	}
}

// TestCmdSearchRejectsLoadWithoutArrivals: at -load 1e-6 both services'
// arrival rates round to zero on the surrogate's simulation grid. The
// search used to list NaN scores and exit 0; it must fail, so stac
// exits 1.
func TestCmdSearchRejectsLoadWithoutArrivals(t *testing.T) {
	err := cmdSearch([]string{"-load", "1e-6", "-validate=false", "-accesses", "2000"})
	if err == nil || !strings.Contains(err.Error(), "arrival rate") {
		t.Fatalf("err = %v, want an error naming the arrival rate", err)
	}
}

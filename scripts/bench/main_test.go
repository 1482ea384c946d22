package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// The benchmark command runs from the repository root; its tests run
// here.
const root = "../.."

func TestParse(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: stac/internal/fleet
cpu: Intel(R) Xeon(R) CPU @ 2.20GHz
BenchmarkFleetRun-2   	       2	 230000000 ns/op	     11000 queries/s	 3906608 B/op	    1084 allocs/op
BenchmarkFleetRun-2   	       2	 208943712 ns/op	     12085 queries/s	 3906608 B/op	    1083 allocs/op
BenchmarkFleetRun-2   	       2	 210000000 ns/op	     12000 queries/s	 3906608 B/op	    1083 allocs/op
BenchmarkRouterRoute
    bench_test.go:10: a benchmark's log line
BenchmarkRouterRoute-16	40000000	        30.79 ns/op
BenchmarkRouterRoute-16	40000000	        29.58 ns/op
--- FAIL: BenchmarkBroken-2
PASS
ok  	stac/internal/fleet	12.345s
`
	want := map[string]Bench{
		"BenchmarkFleetRun": {Samples: 3, Units: map[string]Stat{
			"ns/op":     {Min: 208943712, Median: 210000000, Max: 230000000},
			"queries/s": {Min: 11000, Median: 12000, Max: 12085},
			"B/op":      {Min: 3906608, Median: 3906608, Max: 3906608},
			"allocs/op": {Min: 1083, Median: 1083, Max: 1084},
		}},
		"BenchmarkRouterRoute": {Samples: 2, Units: map[string]Stat{
			"ns/op": {Min: 29.58, Median: (29.58 + 30.79) / 2, Max: 30.79},
		}},
	}
	if got := parse(out); !reflect.DeepEqual(got, want) {
		t.Errorf("parse:\n got %+v\nwant %+v", got, want)
	}
}

// defined returns the benchmarks that the _test.go files under dir
// define, walking subdirectories when deep is set.
func defined(t *testing.T, dir string, deep bool) map[string]bool {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func (Benchmark\w+)\(`)
	names := map[string]bool{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != dir && (!deep || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case strings.HasSuffix(path, "_test.go"):
			src, err := os.ReadFile(path)
			for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
				names[m[1]] = true
			}
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

func committed(t *testing.T, file string) File {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(root, file))
	if err != nil {
		t.Fatal(err)
	}
	f, err := decode(data)
	if err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	if f.Git == "" || f.Go == "" || f.ProbeNS <= 0 {
		t.Errorf("%s: git %q, go %q, probe_ns %v", file, f.Git, f.Go, f.ProbeNS)
	}
	return f
}

// TestCommittedFiles checks that every committed BENCH file decodes into
// File with no unknown field and covers everything its group runs.
func TestCommittedFiles(t *testing.T) {
	for file, pkgs := range groups {
		f := committed(t, file)
		for _, pkg := range pkgs {
			for name := range defined(t, filepath.Join(root, pkg), false) {
				if f.Benchmarks[name].Samples == 0 {
					t.Errorf("%s has no samples of %s (%s)", file, name, pkg)
				}
			}
		}
	}
	serve := committed(t, serveFile)
	for name := range loadtests {
		if serve.Loadtests[name].QPS <= 0 {
			t.Errorf("%s has no %s loadtest", serveFile, name)
		}
	}
	if committed(t, "BENCH_cache.json").Fig6WallClockSeconds <= 0 ||
		committed(t, "BENCH_mrc.json").SurrogateSpeedupVsReplay <= 0 ||
		committed(t, "BENCH_fleet.json").FleetQueriesPerSecond <= 0 {
		t.Error("a headline number is missing")
	}
}

// TestDocsNameDefinedBenchmarks keeps the prose from citing a benchmark
// that no longer exists.
func TestDocsNameDefinedBenchmarks(t *testing.T) {
	all := defined(t, root, true)
	cited := regexp.MustCompile(`Benchmark[A-Z]\w*`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range cited.FindAllString(string(text), -1) {
			if !all[name] {
				t.Errorf("%s names %s, which no _test.go defines", doc, name)
			}
		}
	}
}

// Command bench runs the per-layer benchmarks, writes the six
// BENCH_*.json files in the one schema File describes, and prints to
// stdout a markdown table of every number's change against the copies
// committed at HEAD. Run it from the repository root, with no flags:
//
//	go run ./scripts/bench
//
// Host speed moves between sessions, so each file records probe_ns, the
// median time of a fixed spin loop run just before its group, and the
// table gives every delta both raw and relative to the two probes.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// groups maps each file of `go test -bench` results to its packages.
var groups = map[string][]string{
	"BENCH_cache.json":    {"./internal/cache"},
	"BENCH_forest.json":   {"./internal/forest", "./internal/deepforest"},
	"BENCH_queueing.json": {"./internal/testbed", "./internal/queueing", "./internal/stats"},
	"BENCH_mrc.json":      {"./internal/mrc", "./internal/surrogate"},
	"BENCH_fleet.json":    {"./internal/fleet"},
}

const serveFile = "BENCH_serve.json"

// loadtests are the serving scenarios of BENCH_serve.json, each a 3 s
// `stac loadtest` after a 1 s warm-up against an in-process engine:
// capacity with the prediction cache hot, the model-bound batched path
// without it, and tail latency at a fixed offered load.
var loadtests = map[string][]string{
	"closed_cached": {"-workers", "4"},
	"closed_cold":   {"-workers", "16", "-nocache"},
	"open":          {"-mode", "open", "-qps", "10000", "-workers", "32"},
}

// File is the schema of every BENCH file.
type File struct {
	Git        string           `json:"git"`
	Go         string           `json:"go"`
	ProbeNS    float64          `json:"probe_ns"`
	Benchmarks map[string]Bench `json:"benchmarks,omitempty"`
	Loadtests  map[string]Load  `json:"loadtests,omitempty"`
	// The headline numbers. BENCH_cache times one `stac experiment fig6
	// -seed 2022` on all CPUs. BENCH_mrc divides the minimum ns/op of
	// BenchmarkTestbedReplayPlan by that of BenchmarkSurrogateEvaluate: how
	// many times cheaper a surrogate plan evaluation is than a replay.
	// BENCH_fleet keeps the best sample of BenchmarkFleetRun's queries/s.
	Fig6WallClockSeconds     float64 `json:"fig6_wall_clock_seconds,omitempty"`
	SurrogateSpeedupVsReplay float64 `json:"surrogate_speedup_vs_replay,omitempty"`
	FleetQueriesPerSecond    float64 `json:"fleet_queries_per_second,omitempty"`
}

// Bench summarises one benchmark's samples per unit: ns/op, B/op,
// allocs/op and any custom metric such as queries/s.
type Bench struct {
	Samples int             `json:"samples"`
	Units   map[string]Stat `json:"units"`
}

// Stat is the spread of one unit over a benchmark's samples.
type Stat struct {
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	Max    float64 `json:"max"`
}

// Load is one loadtest scenario, decoded from stac loadtest's JSON.
type Load struct {
	Requests int     `json:"requests"`
	OK       int     `json:"ok"`
	QPS      float64 `json:"qps"`
	P50MS    float64 `json:"p50_ms"`
	P95MS    float64 `json:"p95_ms"`
	P99MS    float64 `json:"p99_ms"`
	MaxMS    float64 `json:"max_ms"`
}

// tmp holds the stac binary, the serving model and the loadtest results.
var tmp string

func main() {
	log.SetFlags(0)
	var err error
	tmp, err = os.MkdirTemp("", "stac-bench")
	check(err)
	var rev bytes.Buffer
	run(&rev, "git", "describe", "--always", "--dirty")
	stamp := func() *File {
		return &File{Git: strings.TrimSpace(rev.String()), Go: runtime.Version(), ProbeNS: probe()}
	}

	files := map[string]*File{}
	for _, name := range keys(groups) {
		f := stamp()
		var out bytes.Buffer
		run(io.MultiWriter(&out, os.Stderr), "go", append([]string{"test", "-run", "^$", "-bench", ".",
			"-benchmem", "-count", "3", "-benchtime", "0.2s"}, groups[name]...)...)
		f.Benchmarks = parse(out.String())
		files[name] = f
	}
	mrc := files["BENCH_mrc.json"]
	if sur := mrc.Benchmarks["BenchmarkSurrogateEvaluate"].Units["ns/op"].Min; sur > 0 {
		mrc.SurrogateSpeedupVsReplay = round(mrc.Benchmarks["BenchmarkTestbedReplayPlan"].Units["ns/op"].Min/sur, 10)
	}
	fleet := files["BENCH_fleet.json"]
	fleet.FleetQueriesPerSecond = round(fleet.Benchmarks["BenchmarkFleetRun"].Units["queries/s"].Max, 10)

	stac := filepath.Join(tmp, "stac")
	run(os.Stderr, "go", "build", "-o", stac, "./cmd/stac")
	start := time.Now()
	run(io.Discard, stac, "experiment", "fig6", "-seed", "2022")
	files["BENCH_cache.json"].Fig6WallClockSeconds = round(time.Since(start).Seconds(), 1000)

	serve := stamp()
	prof, model := filepath.Join(tmp, "profile.json.gz"), filepath.Join(tmp, "model.gob")
	run(os.Stderr, stac, "profile", "-a", "redis", "-b", "bfs", "-points", "6", "-queries", "30", "-seed", "1", "-out", prof)
	run(os.Stderr, stac, "train", "-in", prof, "-model", model)
	serve.Loadtests = map[string]Load{}
	for _, name := range keys(loadtests) {
		res := filepath.Join(tmp, name+".json")
		run(os.Stderr, stac, append([]string{"loadtest", "-model", model, "-data", prof,
			"-duration", "3s", "-warmup", "1s", "-json", res}, loadtests[name]...)...)
		data, err := os.ReadFile(res)
		check(err)
		var l Load
		check(json.Unmarshal(data, &l))
		serve.Loadtests[name] = l
	}
	files[serveFile] = serve
	check(os.RemoveAll(tmp))

	fmt.Print("| file | metric | HEAD | this run | Δ | Δ relative to probe_ns | allocs/op |\n|---|---|---|---|---|---|---|\n")
	for _, name := range keys(files) {
		data, err := json.MarshalIndent(files[name], "", "  ")
		check(err)
		check(os.WriteFile(name, append(data, '\n'), 0o644))
		head, _ := exec.Command("git", "show", "HEAD:"+name).Output() // a file missing at HEAD fails to decode
		if was, err := decode(head); err != nil {
			fmt.Printf("| %s | HEAD copy does not decode: %v | | | | | |\n", name, err)
		} else {
			compare(name, was, *files[name])
		}
	}
}

// check ends the run on a failed step, removing tmp first.
func check(err error) {
	if err != nil {
		os.RemoveAll(tmp)
		log.Fatal("bench: ", err)
	}
}

// run runs a command with its stdout on out and its stderr on ours.
func run(out io.Writer, name string, args ...string) {
	cmd := exec.Command(name, args...)
	cmd.Stdout, cmd.Stderr = out, os.Stderr
	if err := cmd.Run(); err != nil {
		check(fmt.Errorf("%s %s: %w", name, strings.Join(args, " "), err))
	}
}

// decode reads a BENCH file, refusing any field the schema lacks.
func decode(data []byte) (f File, err error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err = dec.Decode(&f)
	return f, err
}

// result matches a `go test -bench` result line: the name without its
// -GOMAXPROCS suffix, the iteration count, then value-unit pairs.
var result = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(\d.*)$`)

// parse collects the result lines of `go test -bench` output and
// ignores every other line.
func parse(out string) map[string]Bench {
	samples := map[string]map[string][]float64{}
	for _, line := range strings.Split(out, "\n") {
		m := result.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		if samples[m[1]] == nil {
			samples[m[1]] = map[string][]float64{}
		}
		f := strings.Fields(m[2])
		for i := 0; i+1 < len(f); i += 2 {
			if v, err := strconv.ParseFloat(f[i], 64); err == nil {
				samples[m[1]][f[i+1]] = append(samples[m[1]][f[i+1]], v)
			}
		}
	}
	benches := map[string]Bench{}
	for name, units := range samples {
		b := Bench{Units: map[string]Stat{}}
		for unit, vs := range units {
			b.Units[unit] = spread(vs)
			b.Samples = max(b.Samples, len(vs))
		}
		benches[name] = b
	}
	return benches
}

func spread(vs []float64) Stat {
	slices.Sort(vs)
	n := len(vs)
	return Stat{Min: vs[0], Median: (vs[(n-1)/2] + vs[n/2]) / 2, Max: vs[n-1]}
}

var sink uint64

// probe returns the median time in ns of nine runs of a fixed spin loop,
// a chain of dependent multiply-adds: this host's single-core speed now.
func probe() float64 {
	ns := make([]float64, 9)
	for i := range ns {
		start := time.Now()
		x := uint64(1)
		for j := 0; j < 1<<24; j++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		sink += x
		ns[i] = float64(time.Since(start))
	}
	return spread(ns).Median
}

func round(v, scale float64) float64 { return float64(int64(v*scale+0.5)) / scale }

// compare prints one file's rows of the delta table: its probe, the
// median ns/op of each benchmark, the qps and p99 of each loadtest and
// its headline numbers. Relative to the probe, a time is value ÷
// probe_ns and a rate value × probe_ns.
func compare(file string, was, now File) {
	perTime, perRate := was.ProbeNS/now.ProbeNS, now.ProbeNS/was.ProbeNS
	// norm turns the raw ratio into the probe-relative one; 0 leaves
	// that column empty. A number neither side has prints no row.
	row := func(metric string, b, c, norm float64, allocs string) {
		delta, rel := "removed", ""
		switch {
		case b+c == 0:
			return
		case b == 0:
			delta = "added"
		case c != 0:
			delta = fmt.Sprintf("%+.1f%%", (c/b-1)*100)
			if norm > 0 {
				rel = fmt.Sprintf("%+.1f%%", (c/b*norm-1)*100)
			}
		}
		fmt.Printf("| %s | %s | %.4g | %.4g | %s | %s | %s |\n", file, metric, b, c, delta, rel, allocs)
	}
	row(fmt.Sprintf("probe_ns (git %s → %s)", was.Git, now.Git), was.ProbeNS, now.ProbeNS, 0, "")
	for _, name := range keys(was.Benchmarks, now.Benchmarks) {
		b, c := was.Benchmarks[name].Units, now.Benchmarks[name].Units
		allocs := ""
		if ba, ca := b["allocs/op"].Median, c["allocs/op"].Median; ba != ca {
			allocs = fmt.Sprintf("%g → %g", ba, ca)
		}
		row(name+" ns/op", b["ns/op"].Median, c["ns/op"].Median, perTime, allocs)
	}
	for _, name := range keys(was.Loadtests, now.Loadtests) {
		row(name+" qps", was.Loadtests[name].QPS, now.Loadtests[name].QPS, perRate, "")
		row(name+" p99 ms", was.Loadtests[name].P99MS, now.Loadtests[name].P99MS, perTime, "")
	}
	row("fig6_wall_clock_seconds", was.Fig6WallClockSeconds, now.Fig6WallClockSeconds, perTime, "")
	row("fleet_queries_per_second", was.FleetQueriesPerSecond, now.FleetQueriesPerSecond, perRate, "")
	// A ratio of two timings from one session: the probe cancels.
	row("surrogate_speedup_vs_replay", was.SurrogateSpeedupVsReplay, now.SurrogateSpeedupVsReplay, 0, "")
}

// keys returns the names in any of the maps, sorted.
func keys[V any](ms ...map[string]V) []string {
	var names []string
	for _, m := range ms {
		for name := range m {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	return slices.Compact(names)
}

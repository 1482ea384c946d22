// Package experiments regenerates every table and figure of the paper's
// evaluation section (§5) on the simulated testbed. Each experiment is a
// deterministic generator returning a Report; the cmd/stac CLI and the
// repository's benchmark harness invoke them by id.
//
// Scale note: the paper profiled 14,220 runtime conditions over weeks of
// machine time. The generators default to scaled-down datasets (tens of
// conditions per pair, FastConfig learners) so the full suite finishes in
// minutes on one core. The *shape* of each result — which model wins,
// how error orders across approaches, where policy speedups land — is
// the reproduction target, not absolute numbers.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"stac/internal/obs"
)

// Report is the renderable result of one experiment.
type Report struct {
	// ID is the experiment identifier ("table1", "fig6", ...).
	ID string
	// Title describes the experiment.
	Title string
	// Columns are the table headers.
	Columns []string
	// Rows are the table cells.
	Rows [][]string
	// Notes carry free-form commentary (paper-reported values, caveats).
	Notes []string
}

// Render writes the report as an aligned text table.
func (r *Report) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title); err != nil {
		return err
	}
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			// Rows may be ragged: cells beyond the header columns have
			// no computed width and render unpadded.
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			if pad := w - len(c); pad > 0 && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		return b.String()
	}
	if _, err := fmt.Fprintln(w, line(r.Columns)); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", lineWidth(widths))); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

func lineWidth(widths []int) int {
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	if total >= 2 {
		total -= 2
	}
	return total
}

// Options configures experiment generation.
type Options struct {
	// Seed drives all randomness (default 2022, the paper's year).
	Seed uint64
	// Workers bounds the harness's parallelism across independent
	// experiment units — collocation pairs, repeated trainings,
	// profiled conditions and held-out evaluation rows (0 = GOMAXPROCS,
	// 1 = fully sequential). Per-task RNG streams are derived before
	// dispatch, so for a fixed Seed the rendered report is byte-
	// identical at any worker count (wall-clock columns such as fig5's
	// training times excepted — they measure real elapsed time).
	Workers int

	// scale overrides datasetScale's (points, queries) sizing. Test
	// seam: the determinism regression test shrinks fig6 with it.
	scale *[2]int
}

func (o Options) defaults() Options {
	if o.Seed == 0 {
		o.Seed = 2022
	}
	return o
}

// Generator produces one experiment's report.
type Generator func(Options) (*Report, error)

// registry maps experiment ids to generators; see register calls in the
// per-experiment files. It is written only from init functions (a
// single goroutine, before main) and read-only afterwards, so IDs and
// Run are safe for concurrent use.
var registry = map[string]Generator{}

func register(id string, g Generator) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = g
}

// IDs lists the registered experiment ids in sorted order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run generates the report for one experiment id. Run is safe for
// concurrent use: generators share no mutable state beyond the
// synchronised dataset cache (see helpers.go), and Options is passed by
// value.
func Run(id string, opts Options) (*Report, error) {
	g, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
	}
	defer obs.Span("experiment/" + id)()
	return g(opts.defaults())
}

func pct(v float64) string   { return fmt.Sprintf("%.1f%%", 100*v) }
func ratio(v float64) string { return fmt.Sprintf("%.2fx", v) }

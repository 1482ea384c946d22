package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stac/internal/fleet"
)

// runFleetJSON runs `stac fleet` with args plus a JSON output path and
// decodes what it wrote.
func runFleetJSON(t *testing.T, name string, args ...string) fleet.Result {
	t.Helper()
	path := filepath.Join(t.TempDir(), name+".json")
	if err := cmdFleet(append(args, "-json", path)); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var res fleet.Result
	if err := json.Unmarshal(buf, &res); err != nil {
		t.Fatalf("%s: decoding %s: %v", name, path, err)
	}
	if res.Truncated != 0 {
		t.Errorf("%s: %d truncated node runs", name, res.Truncated)
	}
	if res.Queries == 0 || res.FleetP95 <= 0 {
		t.Errorf("%s: %d queries, fleet p95 %v: nothing measured", name, res.Queries, res.FleetP95)
	}
	return res
}

// TestFleetSmoke checks the cluster contracts on the shipped command's
// JSON output, end to end: the drain scenario forces exactly two moves
// off the drained node and leaves nothing placed there, and under the
// hot shift the migrator moves the hot service off the small node and
// more than halves static placement's fleet p95. It skips under -short;
// CI's full test step runs it.
func TestFleetSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three six-epoch fleet scenarios")
	}
	drain := runFleetJSON(t, "drain", "-scenario", "drain", "-seed", "1", "-workers", "2")
	drains := 0
	for _, m := range drain.Migrations {
		if m.Reason != "drain" {
			continue
		}
		drains++
		if m.From != "mid" {
			t.Errorf("drain move off %s, want mid: %+v", m.From, m)
		}
	}
	if drains != 2 {
		t.Errorf("%d drain moves, want 2: %+v", drains, drain.Migrations)
	}
	for _, s := range drain.Services {
		for _, n := range s.FinalNodes {
			if n == "mid" {
				t.Errorf("service %s still placed on the drained node", s.Name)
			}
		}
	}

	static := runFleetJSON(t, "static", "-scenario", "hotshift", "-seed", "1", "-workers", "2", "-migrate=false")
	migrated := runFleetJSON(t, "migrated", "-scenario", "hotshift", "-seed", "1", "-workers", "2", "-migrate=true")
	if len(static.Migrations) != 0 {
		t.Errorf("static placement migrated: %+v", static.Migrations)
	}
	moved := false
	for _, m := range migrated.Migrations {
		moved = moved || (m.Reason == "sla" && m.From == "small")
	}
	if !moved {
		t.Errorf("no SLA move off the hot node: %+v", migrated.Migrations)
	}
	if migrated.FleetP95 >= 0.5*static.FleetP95 {
		t.Errorf("migrated fleet p95 %.6gs not below half of static %.6gs", migrated.FleetP95, static.FleetP95)
	}
}

// fleetStdout runs `stac fleet` with args and returns what it printed.
func fleetStdout(t *testing.T, args ...string) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	stdout := os.Stdout
	os.Stdout = w
	runErr := cmdFleet(args)
	os.Stdout = stdout
	w.Close()
	printed := <-out
	r.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	return printed
}

// TestFleetSpeculationLine pins the speculation line `stac fleet`
// prints for hotshift at seed 1: five epochs are routed ahead of the
// migrator and one, the epoch that first serves the SLA move, is
// discarded. The line must not depend on the worker count or on
// scheduling.
func TestFleetSpeculationLine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two six-epoch fleet scenarios")
	}
	const want = "  speculative epochs: 5 routed ahead, 1 discarded"
	for _, workers := range []string{"1", "8"} {
		out := fleetStdout(t, "-scenario", "hotshift", "-seed", "1", "-workers", workers)
		found := false
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "  speculative") {
				found = true
				if line != want {
					t.Errorf("workers=%s: printed %q, want %q", workers, line, want)
				}
			}
		}
		if !found {
			t.Errorf("workers=%s: no speculation line in\n%s", workers, out)
		}
	}
}

// TestCmdFleetRejectsUnreachedDrain is a regression test: a drain epoch
// past the run's last epoch used to exit 0 with the node still serving.
func TestCmdFleetRejectsUnreachedDrain(t *testing.T) {
	err := cmdFleet([]string{"-scenario", "drain", "-epochs", "2"})
	var ce *fleet.ConfigError
	if !errors.As(err, &ce) || ce.Field != "DrainEpoch" {
		t.Fatalf("err = %v, want a *fleet.ConfigError for DrainEpoch", err)
	}
}

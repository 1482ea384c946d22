package fleet

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestSpeculationOutcomes pins that both outcomes of the epoch pipeline
// run: the hot-shift golden config's SLA move invalidates the epoch
// speculated under the old placement, so that plan is discarded, while
// balance never moves a service and keeps every speculative plan, and
// locality speculates nothing. These checks read the plan counters,
// which do not depend on scheduling: how many of a discarded plan's runs
// a worker had already started does. Whatever the outcome, only adopted
// runs count as fleet node runs, and the testbed runs exactly the
// adopted runs plus the discarded ones. It reads the counters of the
// golden runs TestFleetWorkerInvariant checks, at 1, 2 and 8 workers.
func TestSpeculationOutcomes(t *testing.T) {
	if testing.Short() {
		t.Skip("15 golden fleet runs")
	}
	for _, r := range goldenRuns() {
		if r.err != nil {
			t.Fatalf("%s workers=%d: %v", r.name, r.workers, r.err)
		}
		switch {
		case r.name == "hotshift" && r.dropped == 0:
			t.Errorf("hotshift workers=%d: no speculative plan discarded after the SLA move", r.workers)
		case r.name == "balance" && (r.plans == 0 || r.dropped != 0):
			t.Errorf("balance workers=%d: %d speculative plans, %d discarded; want some, none discarded",
				r.workers, r.plans, r.dropped)
		case r.name == "locality" && (r.plans != 0 || r.spec != 0):
			t.Errorf("locality workers=%d: %d speculative plans, %d runs; Locality routes on the previous epoch's warmth and must not speculate",
				r.workers, r.plans, r.spec)
		}
		if r.testbed != r.nodeRuns+r.discards {
			t.Errorf("%s workers=%d: testbed ran %d runs, want %d adopted + %d discarded",
				r.name, r.workers, r.testbed, r.nodeRuns, r.discards)
		}
	}
}

// TestConfigRejectsInertSettings pins that settings which would make the
// run silently do nothing fail validation with a typed error naming the
// field: a drain epoch the run never reaches, and negative epoch sizes
// (every epoch would get zero arrivals and report p95 0). So does a
// fleet too large for the merge's one-byte node tags.
func TestConfigRejectsInertSettings(t *testing.T) {
	for _, tc := range []struct {
		field string
		edit  func(*Config)
	}{
		{"DrainEpoch", func(c *Config) { c.Epochs = 2 }},
		{"DrainEpoch", func(c *Config) { c.DrainEpoch = c.Epochs }},
		{"DrainEpoch", func(c *Config) { c.DrainEpoch = -1 }},
		{"EpochQueries", func(c *Config) { c.EpochQueries = -5 }},
		{"Nodes", func(c *Config) {
			for len(c.Nodes) <= maxTagged {
				c.Nodes = append(c.Nodes, c.Nodes[2])
				c.Nodes[len(c.Nodes)-1].Name = fmt.Sprintf("extra%d", len(c.Nodes))
			}
		}},
	} {
		cfg := ScenarioDrain(1).Defaults()
		tc.edit(&cfg)
		_, err := Run(cfg)
		var ce *ConfigError
		if !errors.As(err, &ce) || ce.Field != tc.field {
			t.Errorf("%s: Run error = %v, want a *ConfigError for field %s", tc.field, err, tc.field)
		}
	}
	// The boundary cases stay valid: the last epoch can drain, and a
	// drain epoch without a drain node is ignored.
	last := ScenarioDrain(1).Defaults()
	last.DrainEpoch = last.Epochs - 1
	if err := last.Validate(); err != nil {
		t.Errorf("drain at the last epoch rejected: %v", err)
	}
	noDrain := ScenarioStatic(1).Defaults()
	noDrain.DrainEpoch = 99
	if err := noDrain.Validate(); err != nil {
		t.Errorf("drain epoch without a drain node rejected: %v", err)
	}
}

// TestConfigRejectsNonFiniteRates pins that Validate refuses a NaN load
// and a rate multiplier that is NaN, infinite or negative, naming the
// Services field. A NaN or infinite arrival rate never ends an epoch's
// arrival loop, which appends queries until memory runs out.
func TestConfigRejectsNonFiniteRates(t *testing.T) {
	for _, edit := range []func(*ServiceSpec){
		func(s *ServiceSpec) { s.Load = math.NaN() },
		func(s *ServiceSpec) { s.RateProfile = []float64{1, math.NaN()} },
		func(s *ServiceSpec) { s.RateProfile = []float64{math.Inf(1)} },
		func(s *ServiceSpec) { s.RateProfile = []float64{-0.5} },
	} {
		cfg := ScenarioStatic(1).Defaults()
		edit(&cfg.Services[1])
		var ce *ConfigError
		if err := cfg.Validate(); !errors.As(err, &ce) || ce.Field != "Services" {
			t.Errorf("load %v, rate profile %v: Validate = %v, want a *ConfigError for field Services",
				cfg.Services[1].Load, cfg.Services[1].RateProfile, err)
		}
	}
}

// TestRunErrorWithSpeculationInFlight pins the error path: the rollout
// reaches the mid node at epoch 2 with a plan that fits only one of its
// two services, while the next epoch's speculative runs are already
// queued. Run must report the failing epoch and node, the same at any
// worker count, and return (stopping its workers) instead of hanging.
func TestRunErrorWithSpeculationInFlight(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		cfg := ScenarioStatic(1)
		cfg.Rollout = &Rollout{StartEpoch: 1, PrivateWays: 8, SharedWays: 0}
		cfg.Workers = workers
		_, err := Run(cfg)
		if err == nil || !strings.Contains(err.Error(), "fleet: epoch 2 node mid:") {
			t.Errorf("workers=%d: err = %v, want the epoch 2 failure on node mid", workers, err)
		}
	}
}

package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"testing"
	"time"

	"stac/internal/testbed"
	"stac/internal/workload"
)

// FuzzFleetConfig builds small fleet configurations from arbitrary bytes
// (see fuzzConfig) and runs them. Validate and Run must not panic or
// hang. A configuration that Validate refuses fails with a *ConfigError
// and Run refuses it too; any other either fails Run with an error or
// yields a Result whose JSON survives a decode/encode round trip
// unchanged. The seeds are a two-node run with a migrator, a drain and
// a rollout, and configurations carrying a NaN load and an infinite
// rate multiplier, which Validate once accepted and whose arrival loops
// never ended.
func FuzzFleetConfig(f *testing.F) {
	// Two nodes serving redis and social for three epochs of 20 queries,
	// least-loaded, with the migrator.
	f.Add([]byte{1, 1, 2, 0, 0, 0, 2, 0, 0, 0, 0, 1, 7, 12, 0, 0, 0, 6, 10, 0, 0, 0, 2, 19, 1, 1})
	// Three nodes and three services: redis pinned to a and b with a rate
	// profile, power-of-two routing, b drained at epoch 2 and a rollout
	// from epoch 1.
	f.Add([]byte{
		2, 1, 2, 0, 0, 0, 2, 1, 0, 0, 0, 3, 0, 0, 0, 0,
		2, 7, 12, 2, 2, 1, 2, 2, 4, 2, 1, 11, 0, 0, 0, 5, 10, 0, 0, 0,
		2, 29, 2, 0, 3, 2, 1, 1, 3, 1, 5,
	})
	// A NaN load, and an infinite rate multiplier.
	f.Add([]byte{0, 0, 2, 0, 0, 0, 0, 7, 255, 0, 0, 0, 0, 9})
	f.Add([]byte{0, 0, 2, 0, 0, 0, 0, 7, 12, 0, 0, 1, 254, 0, 9})

	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := fuzzConfig(data)
		type outcome struct {
			res *Result
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			res, err := Run(cfg)
			done <- outcome{res, err}
		}()
		var out outcome
		select {
		case out = <-done:
		case <-time.After(60 * time.Second):
			t.Fatalf("Run did not return within 60 s for %x", data)
		}

		if verr := cfg.Defaults().Validate(); verr != nil {
			var ce *ConfigError
			if !errors.As(verr, &ce) {
				t.Fatalf("Validate error %v is not a *ConfigError", verr)
			}
			if out.err == nil {
				t.Fatalf("Run accepted a configuration Validate refuses: %v", verr)
			}
			return
		}
		if out.err != nil {
			return
		}
		first, err := json.Marshal(out.res)
		if err != nil {
			t.Fatalf("result does not encode: %v", err)
		}
		var back Result
		if err := json.Unmarshal(first, &back); err != nil {
			t.Fatalf("result JSON does not decode: %v", err)
		}
		again, err := json.Marshal(&back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, again) {
			t.Fatalf("result JSON changed in a round trip:\n%s\n%s", first, again)
		}
	})
}

// fuzzConfig reads a configuration from data, one byte per field, with
// missing bytes read as zero, the default of every field: at most three
// nodes, three services and three epochs of at most 40 queries at rate
// multiplier 1, on one worker. Kernels (workload.All) and processors
// (testbed.Processors) are picked by index. Counts, way counts, pins,
// drains and rollouts also take values just outside their valid ranges,
// so Validate's refusals and Run's error paths are reached. A load is
// 0.4 to 1 in steps of 0.1 and a rate multiplier 0 to 1 in steps of
// 0.25, except that byte 255 reads NaN and 254 reads +Inf. The epoch
// length gives the slowest-arriving service its queries, so the finite
// values keep every other service's arrivals within a small factor of
// that, and each run small.
func fuzzConfig(data []byte) Config {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	// small reads a value in [-1, n).
	small := func(n int) int {
		if v := next() % (n + 1); v < n {
			return v
		}
		return -1
	}
	num := func(lo, step float64, steps int) float64 {
		switch b := next(); b {
		case 255:
			return math.NaN()
		case 254:
			return math.Inf(1)
		default:
			return lo + step*float64(b%(steps+1))
		}
	}
	// A node named "" is named node<i> by Defaults.
	names := []string{"", "a", "b", "c"}
	refs := []string{"node0", "a", "b", "c"}
	procs := testbed.Processors()
	kernels := workload.All()

	var cfg Config
	for n := 1 + next()%3; n > 0; n-- {
		cfg.Nodes = append(cfg.Nodes, NodeSpec{
			Name:            names[next()%len(names)],
			Processor:       procs[next()%len(procs)],
			CoresPerService: small(4),
			PrivateWays:     small(7),
			SharedWays:      small(5),
		})
	}
	for n := 1 + next()%3; n > 0; n-- {
		s := ServiceSpec{Kernel: kernels[next()%len(kernels)], Load: num(0.4, 0.1, 6), Replicas: small(4)}
		for pins := next() % 4; pins > 0; pins-- {
			s.Nodes = append(s.Nodes, refs[next()%len(refs)])
		}
		for epochs := next() % 4; epochs > 0; epochs-- {
			s.RateProfile = append(s.RateProfile, num(0, 0.25, 4))
		}
		cfg.Services = append(cfg.Services, s)
	}
	cfg.Epochs = 1 + next()%3
	cfg.EpochQueries = 1 + next()%40
	cfg.Policy = Policy(next() % 5)
	cfg.Migrate = next()%2 == 1
	if b := next() % 5; b > 0 {
		cfg.DrainNode = refs[b-1]
		cfg.DrainEpoch = small(4)
	}
	if next()%2 == 1 {
		cfg.Rollout = &Rollout{StartEpoch: small(3), PrivateWays: small(7), SharedWays: small(5)}
	}
	cfg.Seed = uint64(next())
	cfg.Workers = 1
	return cfg
}

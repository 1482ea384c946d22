package policy

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	"stac/internal/core"
	"stac/internal/profile"
	"stac/internal/stats"
	"stac/internal/workload"
)

// goldenModelDrivenDigest is the sha256 over ModelDriven's decision and
// both median-filtered 5×5 grids of predicted mean response for redis +
// bfs at ρ = 0.9, with a predictor trained on a small fixed library (24
// conditions, enough for NewPredictor to install a residual correction).
// It was computed before the grid's predictions and the predictor's
// correction fit were fanned out, which must not move a bit.
const goldenModelDrivenDigest = "4af0bb96963c356ac6b057c58dc5fb6fb56b4c5f05ff035d5f360a3968a3efa8"

func TestGoldenModelDriven(t *testing.T) {
	if testing.Short() {
		t.Skip("collects and trains on a small library")
	}
	ds, err := profile.Collect(profile.CollectOptions{
		KernelA:           workload.Redis(),
		KernelB:           workload.BFS(),
		QueriesPerService: 60,
		Seed:              5,
	}, profile.UniformPoints(24, stats.NewRNG(6)))
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.TrainDeepForestEA(ds, dfTestConfig(ds), stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	sa, err := ScenarioTemplate(ds, "redis", 0.9, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := ScenarioTemplate(ds, "bfs", 0.9, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			// NewPredictor fits the residual corrections and modelDriven
			// predicts the grid on GOMAXPROCS workers (workers 0).
			p, err := core.NewPredictor(model, ds, 0)
			if err != nil {
				t.Fatal(err)
			}
			d, grids, err := modelDriven(p, sa, sb, SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			var buf [8]byte
			wf := func(v float64) {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
			wf(d.TimeoutA)
			wf(d.TimeoutB)
			for _, g := range grids {
				for _, row := range g {
					for _, v := range row {
						wf(v)
					}
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != goldenModelDrivenDigest {
				t.Errorf("model-driven digest moved:\n got  %s\n want %s", got, goldenModelDrivenDigest)
			}
		})
	}
}

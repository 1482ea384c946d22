package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	"stac/internal/deepforest"
	"stac/internal/stats"
)

// goldenGridDigest is the sha256 over PredictResponse and
// QueueOnlyPredict for both services of a small fixed Redis×BFS dataset
// at every cell of the model-driven search's 5×5 timeout grid (the
// policy package's TimeoutGrid; core cannot import it). It was computed
// before Stage 3 pooled its simulators and reused standard variates,
// which must not move a bit of any prediction.
const goldenGridDigest = "6fcbd36c52d194e99c78853ff053b1d8e2ed9a51beccb544239fbff45d24877b"

func TestGoldenPredictGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("collects and trains on a small dataset")
	}
	ds := buildDataset(t, 12, 42)
	model, err := TrainDeepForestEA(ds, deepforest.FastConfig(MatrixSpec(ds.Schema)), stats.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}

	var templates [2]Scenario
	for i, svc := range []string{"redis", "bfs"} {
		rows := ds.FilterService(svc)
		if rows.Len() == 0 {
			t.Fatalf("no %s rows", svc)
		}
		templates[i] = ScenarioFromRow(rows.Rows[0])
		templates[i].Load, templates[i].PartnerLoad = 0.9, 0.9
	}

	// The predictor is built under each GOMAXPROCS setting, because
	// NewPredictor fans its residual-correction fit out over its default
	// workers.
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			p, err := NewPredictor(model, ds, 0)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			var buf [8]byte
			wf := func(v float64) {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
			wp := func(pr Prediction) {
				wf(pr.EA)
				wf(pr.MeanResponse)
				wf(pr.P95Response)
				wf(pr.QueueDelay)
				wf(pr.BoostedFrac)
			}
			grid := []float64{0, 0.5, 1.5, 3, 4.5}
			for _, tA := range grid {
				for _, tB := range grid {
					for i, tm := range templates {
						s := tm
						s.Timeout, s.PartnerTimeout = tA, tB
						if i == 1 {
							s.Timeout, s.PartnerTimeout = tB, tA
						}
						pr, err := p.PredictResponse(s)
						if err != nil {
							t.Fatal(err)
						}
						wp(pr)
						q, err := QueueOnlyPredict(s)
						if err != nil {
							t.Fatal(err)
						}
						wp(q)
					}
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != goldenGridDigest {
				t.Errorf("prediction grid digest moved:\n got  %s\n want %s", got, goldenGridDigest)
			}
		})
	}
}

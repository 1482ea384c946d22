package experiments

import (
	"strconv"

	"stac/internal/core"
	"stac/internal/counters"
	"stac/internal/neural"
	"stac/internal/obs"
	"stac/internal/par"
	"stac/internal/profile"
	"stac/internal/stats"
)

func init() {
	register("fig6", Fig6)
}

// Fig6 reproduces Figure 6: absolute-percentage-error of response-time
// prediction for five modeling approaches.
//
// Protocol per §5.1: our approach trains on 33 % of the data and is
// calibrated per collocation pairing; competitors get 70 % and train on
// the pooled data of all pairings ("unlike our model that is calibrated
// using only one collocation pairing, the CNN had access to all training
// data"). No approach may use a profile observed under a test condition —
// inputs for every model are reconstructed from its training library.
//
// Expected shape: linear ≫ decision tree > CNN ≈ queueing-only > ours.
func Fig6(opts Options) (*Report, error) {
	opts = opts.defaults()
	nPoints, queries := datasetScale(opts)

	// The paper profiles every pairwise collocation; we sample three
	// representative pairs spanning the reuse spectrum.
	pairs := []pairSpec{
		{"redis", "bfs"},
		{"social", "spkmeans"},
		{"jacobi", "knn"},
	}

	// Per-pair results land in index-addressed slots; the fan-in below
	// walks them in pair order, so the pooled sets and error samples are
	// identical at any worker count.
	type pairResult struct {
		compTrain, compTest profile.Dataset
		oursErrs, queueErrs []float64
	}
	perPair := make([]pairResult, len(pairs))
	if err := par.ForEach(opts.Workers, len(pairs), func(pi int) error {
		pair := pairs[pi]
		defer obs.Span("fig6/pair/" + pair.String())()
		seed := opts.Seed + uint64(pi)*101
		ds, err := collectPair(pair, nPoints, queries, 0, seed, opts.Workers)
		if err != nil {
			return err
		}

		// Our split: 33 % of conditions. Competitors: 70 %.
		ourTrain, ourTest := ds.SplitByCondition(0.33, seed+1)
		ourTest = ourTest.AggregateByCondition()
		compTrain, compTest := ds.SplitByCondition(0.70, seed+2)
		compTest = compTest.AggregateByCondition()

		// Keep condition ids distinct across pairs in the pooled sets.
		offsetCondIDs(&compTrain, pi*1_000_000)
		offsetCondIDs(&compTest, pi*1_000_000)
		perPair[pi].compTrain = compTrain
		perPair[pi].compTest = compTest

		p, _, _, err := trainPipeline(ourTrain, opts, seed+3)
		if err != nil {
			return err
		}
		es, err := core.EvaluatePredictor(p, ourTest, opts.Workers)
		if err != nil {
			return err
		}
		perPair[pi].oursErrs = es

		qs, err := core.EvaluateQueueOnly(ourTest, opts.Workers)
		if err != nil {
			return err
		}
		perPair[pi].queueErrs = qs
		return nil
	}); err != nil {
		return nil, err
	}

	var oursErrs, queueErrs []float64
	pooledTrain := profile.Dataset{}
	pooledTest := profile.Dataset{}
	for _, pr := range perPair {
		if pooledTrain.Len() == 0 {
			pooledTrain.Schema = pr.compTrain.Schema
			pooledTest.Schema = pr.compTest.Schema
		}
		if err := pooledTrain.Append(pr.compTrain); err != nil {
			return nil, err
		}
		if err := pooledTest.Append(pr.compTest); err != nil {
			return nil, err
		}
		oursErrs = append(oursErrs, pr.oursErrs...)
		queueErrs = append(queueErrs, pr.queueErrs...)
	}

	// Competitors: one model over the pooled training data.
	lin, err := core.TrainLinearResponse(pooledTrain)
	if err != nil {
		return nil, err
	}
	linErrs, err := core.EvaluateResponseModel(lin, pooledTrain, pooledTest, opts.Workers)
	if err != nil {
		return nil, err
	}

	seed := opts.Seed
	tree, err := core.TrainTreeResponse(pooledTrain, stats.NewRNG(seed+4))
	if err != nil {
		return nil, err
	}
	treeErrs, err := core.EvaluateResponseModel(tree, pooledTrain, pooledTest, opts.Workers)
	if err != nil {
		return nil, err
	}

	cnnCfg := neural.DefaultConfig(neural.MatrixSpec{
		Offset: profile.MatrixOffset, Rows: counters.NumCounters, Cols: profile.QueriesPerRow,
	})
	cnnCfg.Epochs = 40
	cnn, err := core.TrainCNNResponse(pooledTrain, cnnCfg, stats.NewRNG(seed+5))
	if err != nil {
		return nil, err
	}
	cnnErrs, err := core.EvaluateResponseModel(cnn, pooledTrain, pooledTest, opts.Workers)
	if err != nil {
		return nil, err
	}

	rep := &Report{
		ID:      "fig6",
		Title:   "Response-time prediction error by modeling approach",
		Columns: []string{"approach", "median APE", "p95 APE", "n"},
	}
	add := func(name string, errs []float64) {
		med, p95 := medianAndP95(errs)
		rep.Rows = append(rep.Rows, []string{name, pct(med), pct(p95), strconv.Itoa(len(errs))})
	}
	add("linear regression (70% train, pooled)", linErrs)
	add("decision tree (70% train, pooled)", treeErrs)
	add("CNN direct (70% train, pooled)", cnnErrs)
	add("queueing model only", queueErrs)
	add("ours: deep forest + queueing (33% train)", oursErrs)
	rep.Notes = append(rep.Notes,
		"paper: linear 50% median / >300% p95; tree 20% / >100%; CNN 26%; queue-only 23%; ours 11% median, 12% p95",
		"shape target: linear >> tree > CNN ~ queue-only > ours")
	return rep, nil
}

// offsetCondIDs shifts a dataset's condition ids so pooled datasets keep
// conditions distinct across pairs.
func offsetCondIDs(ds *profile.Dataset, off int) {
	for i := range ds.Rows {
		ds.Rows[i].CondID += off
	}
}

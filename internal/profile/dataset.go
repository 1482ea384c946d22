package profile

import (
	"fmt"
	"slices"

	"stac/internal/stats"
)

// Dataset is a set of profile rows sharing one schema.
type Dataset struct {
	Schema Schema
	Rows   []Row
}

// Len returns the number of rows.
func (d Dataset) Len() int { return len(d.Rows) }

// Features returns the feature matrix (rows share backing with the
// dataset; callers must not mutate).
func (d Dataset) Features() [][]float64 {
	out := make([][]float64, len(d.Rows))
	for i, r := range d.Rows {
		out[i] = r.Features
	}
	return out
}

// Targets returns the effective-allocation target vector.
func (d Dataset) Targets() []float64 {
	out := make([]float64, len(d.Rows))
	for i, r := range d.Rows {
		out[i] = r.EA
	}
	return out
}

// MeanResponses returns the measured mean response time per row.
func (d Dataset) MeanResponses() []float64 {
	out := make([]float64, len(d.Rows))
	for i, r := range d.Rows {
		out[i] = r.RespMean
	}
	return out
}

// Append merges another dataset's rows; the schemas must agree in
// counter order, or the merged matrices would mix two layouts.
func (d *Dataset) Append(other Dataset) error {
	if len(other.Rows) == 0 {
		return nil
	}
	if !slices.Equal(d.Schema.CounterOrder, other.Schema.CounterOrder) {
		return fmt.Errorf("profile: schema mismatch: the counter orders differ")
	}
	d.Rows = append(d.Rows, other.Rows...)
	return nil
}

// SplitByCondition partitions the dataset so all rows of one profiling
// condition land on the same side — the paper's protocol ("testing data
// was not used during training to ensure models accurately extrapolated
// to new, unseen conditions"). trainFrac applies to conditions, not rows.
func (d Dataset) SplitByCondition(trainFrac float64, seed uint64) (train, test Dataset) {
	ids := make([]int, 0)
	seen := map[int]bool{}
	for _, r := range d.Rows {
		if !seen[r.CondID] {
			seen[r.CondID] = true
			ids = append(ids, r.CondID)
		}
	}
	r := stats.NewRNG(seed)
	r.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	nTrain := int(trainFrac * float64(len(ids)))
	trainSet := map[int]bool{}
	for i, id := range ids {
		if i < nTrain {
			trainSet[id] = true
		}
	}
	train = Dataset{Schema: d.Schema}
	test = Dataset{Schema: d.Schema}
	for _, row := range d.Rows {
		if trainSet[row.CondID] {
			train.Rows = append(train.Rows, row)
		} else {
			test.Rows = append(test.Rows, row)
		}
	}
	return train, test
}

// AggregateByCondition collapses window rows into one row per
// (condition, service): features and measurements are averaged. Training
// uses the window rows (more examples, dynamic diversity — §3.1), but
// accuracy is evaluated against each condition's aggregate response time,
// matching the paper's protocol ("we executed online services and
// measured average and 95th-percentile response time" per runtime
// condition). Window-level means at high load carry large sampling noise
// that no model could remove.
func (d Dataset) AggregateByCondition() Dataset {
	type key struct {
		cond    int
		service string
	}
	groups := map[key][]Row{}
	var order []key
	for _, r := range d.Rows {
		k := key{r.CondID, r.Service}
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], r)
	}
	out := Dataset{Schema: d.Schema, Rows: make([]Row, 0, len(order))}
	for _, k := range order {
		rows := groups[k]
		agg := Row{
			Features: make([]float64, len(rows[0].Features)),
			Service:  k.service,
			CondID:   k.cond,
		}
		for _, r := range rows {
			for j, v := range r.Features {
				agg.Features[j] += v
			}
			agg.EA += r.EA
			agg.RespMean += r.RespMean
			agg.RespP95 += r.RespP95
			agg.STMean += r.STMean
			agg.STCV += r.STCV
			agg.ExpService = r.ExpService
		}
		n := float64(len(rows))
		for j := range agg.Features {
			agg.Features[j] /= n
		}
		agg.EA /= n
		agg.RespMean /= n
		agg.RespP95 /= n
		agg.STMean /= n
		agg.STCV /= n
		out.Rows = append(out.Rows, agg)
	}
	return out
}

// FilterService returns the subset of rows belonging to the named service.
func (d Dataset) FilterService(name string) Dataset {
	out := Dataset{Schema: d.Schema}
	for _, r := range d.Rows {
		if r.Service == name {
			out.Rows = append(out.Rows, r)
		}
	}
	return out
}

// Truncate returns a dataset with at most n rows (the head). Used by the
// profiling-overhead study, which varies training-set size.
func (d Dataset) Truncate(n int) Dataset {
	if n >= len(d.Rows) {
		return d
	}
	return Dataset{Schema: d.Schema, Rows: d.Rows[:n]}
}

package stac

import "testing"

func TestWorkloadsFacade(t *testing.T) {
	ws := Workloads()
	if len(ws) != 8 {
		t.Fatalf("want 8 workloads, got %d", len(ws))
	}
	k, err := WorkloadByName("redis")
	if err != nil || k.Name != "redis" {
		t.Fatalf("WorkloadByName failed: %v %v", k.Name, err)
	}
	if _, err := WorkloadByName("nope"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestEndToEndFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("full facade flow is slow")
	}
	redis, _ := WorkloadByName("redis")
	bfs, _ := WorkloadByName("bfs")
	ds, err := Profile(ProfileOptions{
		KernelA: redis, KernelB: bfs, Points: 10, QueriesPerCondition: 60,
		UseUniform: true, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() == 0 {
		t.Fatal("empty dataset")
	}
	pred, err := Train(ds, TrainOptions{Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	sa, err := NewScenario(ds, "redis", 0.9, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := NewScenario(ds, "bfs", 0.9, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	p, err := pred.PredictResponse(sa)
	if err != nil {
		t.Fatal(err)
	}
	if p.MeanResponse <= 0 || p.EA <= 0 {
		t.Fatalf("implausible prediction %+v", p)
	}
	d, err := FindPolicy(pred, sa, sb)
	if err != nil {
		t.Fatal(err)
	}
	if d.TimeoutA < 0 || d.TimeoutB < 0 {
		t.Fatalf("negative timeouts: %+v", d)
	}
}

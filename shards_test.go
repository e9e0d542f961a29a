package taskdrop

import (
	"context"
	"testing"
)

// TestScenarioWithShardsRuns: a sharded scenario runs to a conserved
// Result, is reproducible run-to-run, and WithShards(1) is byte-identical
// to the default unsharded scenario.
func TestScenarioWithShardsRuns(t *testing.T) {
	ctx := context.Background()
	base := []ScenarioOption{
		WithMapper("PAM"), WithDropper("heuristic"),
		WithTasks(400), WithWindow(StandardWindow / 75), WithSeed(3),
	}

	plain, err := NewScenario("video", base...)
	if err != nil {
		t.Fatal(err)
	}
	oneShard, err := NewScenario("video", append(append([]ScenarioOption{}, base...), WithShards(1), WithRouter("p2c"))...)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := plain.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := oneShard.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if *rp.Trials[0] != *r1.Trials[0] {
		t.Fatalf("WithShards(1) diverged from the unsharded scenario:\n%+v\n%+v", r1.Trials[0], rp.Trials[0])
	}

	for _, routerSpec := range []string{"rr", "p2c:seed=9"} {
		sharded, err := NewScenario("video", append(append([]ScenarioOption{}, base...), WithShards(4), WithRouter(routerSpec))...)
		if err != nil {
			t.Fatal(err)
		}
		ra, err := sharded.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		res := ra.Trials[0]
		if err := res.Validate(); err != nil {
			t.Fatalf("%s: %v", routerSpec, err)
		}
		if res.Total != 400 {
			t.Fatalf("%s: total %d, want 400", routerSpec, res.Total)
		}
		// Reproducible: a second scenario with the same knobs matches.
		again, err := NewScenario("video", append(append([]ScenarioOption{}, base...), WithShards(4), WithRouter(routerSpec))...)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := again.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if *res != *rb.Trials[0] {
			t.Fatalf("%s: sharded scenario not reproducible:\n%+v\n%+v", routerSpec, res, rb.Trials[0])
		}
	}
}

// TestScenarioShardValidation: bad shard counts and router specs fail at
// construction.
func TestScenarioShardValidation(t *testing.T) {
	if _, err := NewScenario("video", WithShards(0)); err == nil {
		t.Error("WithShards(0) accepted")
	}
	if _, err := NewScenario("video", WithShards(9)); err == nil {
		t.Error("WithShards(9) accepted on an 8-machine system")
	}
	if _, err := NewScenario("video", WithRouter("nosuch")); err == nil {
		t.Error("bad router spec accepted")
	}
	if _, err := NewRouter("p2c:seed=2"); err != nil {
		t.Errorf("NewRouter: %v", err)
	}
	// rr, p2c, and the router tier's class-hash policy.
	if got := RouterNames(); len(got) != 3 {
		t.Errorf("RouterNames() = %v", got)
	}
}

// TestShardsSweepAxis: the Shards/Routers axes expand into a grid whose
// cells share traces (paired by construction) and report per-cell
// robustness.
func TestShardsSweepAxis(t *testing.T) {
	sw, err := NewSweep(
		Profiles("video"),
		Shards(1, 2, 4),
		Routers("rr", "p2c"),
		Tasks(300),
		Windows(StandardWindow/100),
		SweepSeed(5),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Cells); got != 6 {
		t.Fatalf("grid expanded to %d cells, want 6", got)
	}
	for _, cell := range res.Cells {
		r := cell.Run.Summary.Robustness.Mean
		if r < 0 || r > 100 {
			t.Fatalf("cell %q robustness %v out of range", cell.Label, r)
		}
	}
}

package sim

import (
	"testing"

	"github.com/hpcclab/taskdrop/internal/core"
	"github.com/hpcclab/taskdrop/internal/pet"
	"github.com/hpcclab/taskdrop/internal/pmf"
	"github.com/hpcclab/taskdrop/internal/workload"
)

func TestFailureConfigEnabled(t *testing.T) {
	if (FailureConfig{}).Enabled() {
		t.Fatal("zero config must be disabled")
	}
	if !(FailureConfig{MTBF: 100, MeanRepair: 10}).Enabled() {
		t.Fatal("MTBF > 0 must enable")
	}
}

func TestFailuresKillRunningTasks(t *testing.T) {
	// Aggressive failures (MTBF 50 ms, repair 20 ms) against 100 ms tasks:
	// kills are near-certain across 200 tasks.
	m := pet.Build(pet.VideoProfile(), 1, pet.BuildOptions{SamplesPerCell: 150, BinsPerPMF: 15})
	tr := workload.Generate(m, workload.Config{TotalTasks: 200, Window: 2000, GammaSlack: 3}, 21)
	cfg := DefaultConfig()
	cfg.BoundaryExclusion = 0
	cfg.Failures = FailureConfig{MTBF: 50, MeanRepair: 20, Seed: 1}
	res := New(m, tr, fifoMapper{}, core.Heuristic{Beta: core.DefaultBeta, Eta: core.DefaultEta}, cfg).Run()
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 {
		t.Fatalf("no tasks killed under MTBF=50ms: %+v", res)
	}
}

func TestFailuresReduceRobustness(t *testing.T) {
	m := pet.Build(pet.VideoProfile(), 1, pet.BuildOptions{SamplesPerCell: 150, BinsPerPMF: 15})
	tr := workload.Generate(m, workload.Config{TotalTasks: 400, Window: 4000, GammaSlack: 3}, 22)

	healthy := New(m, tr, fifoMapper{}, core.Heuristic{Beta: core.DefaultBeta, Eta: core.DefaultEta}, DefaultConfig())
	resH := healthy.Run()

	cfg := DefaultConfig()
	cfg.Failures = FailureConfig{MTBF: 200, MeanRepair: 100, Seed: 2}
	resF := New(m, tr, fifoMapper{}, core.Heuristic{Beta: core.DefaultBeta, Eta: core.DefaultEta}, cfg).Run()

	if err := resF.Validate(); err != nil {
		t.Fatal(err)
	}
	if resF.RobustnessPct >= resH.RobustnessPct {
		t.Fatalf("failures did not hurt: %.2f%% with vs %.2f%% without",
			resF.RobustnessPct, resH.RobustnessPct)
	}
}

func TestFailuresDisabledMatchesBaseline(t *testing.T) {
	// A zero FailureConfig must leave results bit-identical to the
	// pre-extension behaviour.
	m := pet.Build(pet.VideoProfile(), 1, pet.BuildOptions{SamplesPerCell: 150, BinsPerPMF: 15})
	tr := workload.Generate(m, workload.Config{TotalTasks: 300, Window: 3000, GammaSlack: 2}, 23)
	a := New(m, tr, fifoMapper{}, core.Heuristic{Beta: core.DefaultBeta, Eta: core.DefaultEta}, DefaultConfig()).Run()
	cfg := DefaultConfig()
	cfg.Failures = FailureConfig{} // explicit zero
	b := New(m, tr, fifoMapper{}, core.Heuristic{Beta: core.DefaultBeta, Eta: core.DefaultEta}, cfg).Run()
	if *a != *b {
		t.Fatalf("disabled failures changed results:\n%+v\n%+v", a, b)
	}
	if a.Failed != 0 || b.Failed != 0 {
		t.Fatal("failed counts must be zero without injection")
	}
}

func TestFailuresDeterministic(t *testing.T) {
	m := pet.Build(pet.VideoProfile(), 1, pet.BuildOptions{SamplesPerCell: 150, BinsPerPMF: 15})
	tr := workload.Generate(m, workload.Config{TotalTasks: 300, Window: 3000, GammaSlack: 2}, 24)
	cfg := DefaultConfig()
	cfg.Failures = FailureConfig{MTBF: 300, MeanRepair: 50, Seed: 9}
	a := New(m, tr, fifoMapper{}, core.Heuristic{Beta: core.DefaultBeta, Eta: core.DefaultEta}, cfg).Run()
	b := New(m, tr, fifoMapper{}, core.Heuristic{Beta: core.DefaultBeta, Eta: core.DefaultEta}, cfg).Run()
	if *a != *b {
		t.Fatalf("same failure seed, different results:\n%+v\n%+v", a, b)
	}
	cfg.Failures.Seed = 10
	c := New(m, tr, fifoMapper{}, core.Heuristic{Beta: core.DefaultBeta, Eta: core.DefaultEta}, cfg).Run()
	if *a == *c {
		t.Fatal("different failure seeds should (overwhelmingly) differ")
	}
}

func TestFailedMachineAcceptsNoWork(t *testing.T) {
	// One machine, immediate long outage: a task arriving during the
	// outage must wait (or expire) rather than start.
	m := testMatrix(t, 1, pmf.Delta(10))
	tr := makeTrace(
		[]pmf.Tick{100},
		[]pmf.Tick{130},
		[]pmf.Tick{10},
	)
	cfg := cfgNoExclusion()
	// MTBF 1 tick → fails almost immediately; repair mean 1e6 → stays
	// down for the whole trial.
	cfg.Failures = FailureConfig{MTBF: 1, MeanRepair: 1_000_000, Seed: 3}
	res := New(m, tr, fifoMapper{}, nil, cfg).Run()
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.OnTime != 0 {
		t.Fatalf("task ran on a failed machine: %+v", res)
	}
	if res.DroppedReactive != 1 {
		t.Fatalf("task should expire waiting for repair: %+v", res)
	}
}

func TestFailureDuringIdleIsHarmless(t *testing.T) {
	// Failure strikes an idle machine before any arrival; after repair the
	// task completes normally.
	m := testMatrix(t, 1, pmf.Delta(10))
	tr := makeTrace(
		[]pmf.Tick{500},
		[]pmf.Tick{600},
		[]pmf.Tick{10},
	)
	cfg := cfgNoExclusion()
	cfg.Failures = FailureConfig{MTBF: 100, MeanRepair: 5, Seed: 4}
	res := New(m, tr, fifoMapper{}, nil, cfg).Run()
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.OnTime+res.Late+res.Failed+res.DroppedReactive != 1 {
		t.Fatalf("task unaccounted: %+v", res)
	}
}

func TestFailedStatusString(t *testing.T) {
	if StatusFailed.String() != "failed" || !StatusFailed.Terminal() {
		t.Fatal("StatusFailed misbehaves")
	}
}

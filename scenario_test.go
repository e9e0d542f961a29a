package taskdrop_test

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	taskdrop "github.com/hpcclab/taskdrop"
)

// tinyScenario builds a fast video-profile scenario for tests.
func tinyScenario(t *testing.T, opts ...taskdrop.ScenarioOption) *taskdrop.Scenario {
	t.Helper()
	base := []taskdrop.ScenarioOption{
		taskdrop.WithMapper("PAM"),
		taskdrop.WithDropper("heuristic"),
		taskdrop.WithTasks(300),
		taskdrop.WithWindow(2000),
		taskdrop.WithTrials(4),
		taskdrop.WithSeed(1),
	}
	sc, err := taskdrop.NewScenario("video", append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestScenarioRun(t *testing.T) {
	sc := tinyScenario(t)
	rr, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Trials) != 4 {
		t.Fatalf("trials = %d", len(rr.Trials))
	}
	for i, res := range rr.Trials {
		if res == nil {
			t.Fatalf("trial %d missing", i)
		}
		if err := res.Validate(); err != nil {
			t.Fatal(err)
		}
		if res.Total != 300 {
			t.Fatalf("trial %d total = %d", i, res.Total)
		}
	}
	if rr.Summary.Robustness.N != 4 {
		t.Fatalf("summary N = %d", rr.Summary.Robustness.N)
	}
	if m := rr.Summary.Robustness.Mean; m <= 0 || m > 100 {
		t.Fatalf("robustness mean = %v", m)
	}
}

func TestScenarioDeterministicAcrossWorkers(t *testing.T) {
	// The acceptance bar of the redesign: same scenario + seed must yield
	// identical per-trial results and aggregated Summary for any worker
	// count.
	var runs []*taskdrop.RunResult
	for _, workers := range []int{1, 2, 8} {
		sc := tinyScenario(t, taskdrop.WithWorkers(workers))
		rr, err := sc.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, rr)
	}
	for i := 1; i < len(runs); i++ {
		if !reflect.DeepEqual(runs[0].Summary, runs[i].Summary) {
			t.Fatalf("summary diverged between worker counts:\n%+v\n%+v", runs[0].Summary, runs[i].Summary)
		}
		for tr := range runs[0].Trials {
			if *runs[0].Trials[tr] != *runs[i].Trials[tr] {
				t.Fatalf("trial %d diverged between worker counts", tr)
			}
		}
	}
}

func TestScenarioPairedWorkloads(t *testing.T) {
	// Two scenarios with the same seed and workload but different droppers
	// must see identical traces: running the same dropper twice must agree
	// exactly, trial by trial.
	a, err := tinyScenario(t).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := tinyScenario(t, taskdrop.WithWorkers(3)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Trials {
		if *a.Trials[i] != *b.Trials[i] {
			t.Fatalf("trial %d diverged across scenario instances", i)
		}
	}
}

func TestScenarioCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	// Large enough that cancelling after the first trial strands real work.
	sc := tinyScenario(t,
		taskdrop.WithTasks(4000),
		taskdrop.WithWindow(26_000),
		taskdrop.WithTrials(16),
		taskdrop.WithWorkers(2),
		taskdrop.OnTrialDone(func(int, *taskdrop.Result) { cancel() }),
	)
	rr, err := sc.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rr != nil {
		t.Fatal("cancelled run must not return a result")
	}
}

func TestScenarioCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tinyScenario(t).Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestScenarioStream(t *testing.T) {
	sc := tinyScenario(t, taskdrop.WithWorkers(2))
	seen := map[int]bool{}
	for oc := range sc.Stream(context.Background()) {
		if oc.Err != nil {
			t.Fatal(oc.Err)
		}
		if oc.Result == nil || seen[oc.Trial] {
			t.Fatalf("bad outcome %+v", oc)
		}
		seen[oc.Trial] = true
	}
	if len(seen) != 4 {
		t.Fatalf("streamed %d trials, want 4", len(seen))
	}
}

func TestScenarioStreamCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sc := tinyScenario(t,
		taskdrop.WithTasks(4000),
		taskdrop.WithWindow(26_000),
		taskdrop.WithTrials(16),
		taskdrop.WithWorkers(2),
	)
	var sawErr bool
	for oc := range sc.Stream(ctx) {
		if oc.Err != nil {
			if !errors.Is(oc.Err, context.Canceled) {
				t.Fatalf("stream error = %v", oc.Err)
			}
			sawErr = true
			continue
		}
		cancel()
	}
	if !sawErr {
		t.Fatal("cancelled stream must surface ctx.Err() before closing")
	}
}

func TestTrialOutcomeErrorSerializes(t *testing.T) {
	// A stream that ends early must deliver an outcome whose error
	// survives JSON marshaling (error values themselves don't marshal).
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sc := tinyScenario(t)
	var last taskdrop.TrialOutcome
	for oc := range sc.Stream(ctx) {
		last = oc
	}
	if !errors.Is(last.Err, context.Canceled) {
		t.Fatalf("final outcome err = %v, want context.Canceled", last.Err)
	}
	if last.Error != last.Err.Error() {
		t.Fatalf("Error field %q does not mirror Err %q", last.Error, last.Err)
	}
	b, err := json.Marshal(last)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Trial int    `json:"trial"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Trial != -1 || decoded.Error != context.Canceled.Error() {
		t.Fatalf("serialized outcome lost the error: %s", b)
	}
	// Successful outcomes must omit the field entirely.
	ok := taskdrop.TrialOutcome{Trial: 2}
	b, err = json.Marshal(ok)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `{"trial":2}` {
		t.Fatalf("success outcome JSON = %s", b)
	}
}

func TestScenarioOnTrialDone(t *testing.T) {
	var calls atomic.Int32
	sc := tinyScenario(t, taskdrop.OnTrialDone(func(trial int, res *taskdrop.Result) {
		if trial < 0 || trial >= 4 || res == nil {
			t.Errorf("bad hook args: %d %v", trial, res)
		}
		calls.Add(1)
	}))
	if _, err := sc.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 4 {
		t.Fatalf("hook ran %d times, want 4", calls.Load())
	}
}

func TestScenarioOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []taskdrop.ScenarioOption
	}{
		{"unknown mapper", []taskdrop.ScenarioOption{taskdrop.WithMapper("nope")}},
		{"unknown dropper", []taskdrop.ScenarioOption{taskdrop.WithDropper("nope")}},
		{"bad dropper param", []taskdrop.ScenarioOption{taskdrop.WithDropper("heuristic:beta=0.2")}},
		{"zero trials", []taskdrop.ScenarioOption{taskdrop.WithTrials(0)}},
		{"zero tasks", []taskdrop.ScenarioOption{taskdrop.WithTasks(0)}},
		{"zero window", []taskdrop.ScenarioOption{taskdrop.WithWindow(0)}},
		{"negative gamma", []taskdrop.ScenarioOption{taskdrop.WithGamma(-1)}},
		{"zero queue", []taskdrop.ScenarioOption{taskdrop.WithQueueCap(0)}},
		{"negative grace", []taskdrop.ScenarioOption{taskdrop.WithGrace(-1)}},
		{"negative workers", []taskdrop.ScenarioOption{taskdrop.WithWorkers(-1)}},
		{"negative impulse budget", []taskdrop.ScenarioOption{taskdrop.WithMaxImpulses(-1)}},
		{"mapper set twice", []taskdrop.ScenarioOption{
			taskdrop.WithMapper("PAM"), taskdrop.WithMapperImpl(greedy{})}},
		{"dropper set twice", []taskdrop.ScenarioOption{
			taskdrop.WithDropper("optimal"), taskdrop.WithDropperPolicy(taskdrop.OptimalDropper())}},
		{"nil dropper policy", []taskdrop.ScenarioOption{taskdrop.WithDropperPolicy(nil)}},
		{"nil mapper impl", []taskdrop.ScenarioOption{taskdrop.WithMapperImpl(nil)}},
	}
	for _, c := range cases {
		if _, err := taskdrop.NewScenario("video", c.opts...); err == nil {
			t.Errorf("%s: NewScenario should error", c.name)
		}
	}
	if _, err := taskdrop.NewScenario("not-a-profile"); err == nil {
		t.Error("unknown profile: NewScenario should error")
	}
}

func TestScenarioEngineIntrospection(t *testing.T) {
	sc := tinyScenario(t)
	eng, err := sc.Engine(0)
	if err != nil {
		t.Fatal(err)
	}
	rec := taskdrop.Record(eng)
	res := eng.Run()
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	types, machines := rec.Breakdown()
	if len(types) == 0 || len(machines) == 0 || len(rec.TaskStates()) != res.Total {
		t.Fatalf("breakdown of %d types, %d machines, %d task records for %d tasks",
			len(types), len(machines), len(rec.TaskStates()), res.Total)
	}
	// The engine path must agree exactly with Run's trial 0.
	rr, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if *res != *rr.Trials[0] {
		t.Fatalf("Engine(0) result diverged from Run trial 0:\n%+v\n%+v", res, rr.Trials[0])
	}
	if _, err := sc.Engine(99); err == nil {
		t.Error("out-of-range trial must error")
	}
}

func TestScenarioFailuresAndGrace(t *testing.T) {
	sc := tinyScenario(t,
		taskdrop.WithTrials(1),
		taskdrop.WithDropper("approx:grace=150"),
		taskdrop.WithGrace(150),
		taskdrop.WithFailures(taskdrop.FailureConfig{MTBF: 30, MeanRepair: 20, Seed: 5}),
	)
	rr, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res := rr.Trials[0]
	if res.Failed == 0 {
		t.Fatalf("failure injection inert: %+v", res)
	}
	if res.UtilityPct < res.RobustnessPct-1e-9 {
		t.Fatalf("utility %v < robustness %v with grace", res.UtilityPct, res.RobustnessPct)
	}
}

func TestScenariosShareBuiltMatrices(t *testing.T) {
	// A profile spec fully determines its PET matrix, so scenarios naming
	// the same profile must share one build instead of re-synthesizing.
	a, b := tinyScenario(t), tinyScenario(t, taskdrop.WithDropper("optimal"))
	if a.Matrix() != b.Matrix() {
		t.Fatal("same profile spec should share one built matrix")
	}
}

func TestRunResultSerializes(t *testing.T) {
	rr, err := tinyScenario(t, taskdrop.WithTrials(2)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(rr)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Trials  []map[string]any `json:"trials"`
		Summary map[string]any   `json:"summary"`
	}
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded.Trials) != 2 {
		t.Fatalf("serialized trials = %d", len(decoded.Trials))
	}
	if _, ok := decoded.Trials[0]["robustness_pct"]; !ok {
		t.Fatalf("Result JSON missing robustness_pct: %v", decoded.Trials[0])
	}
	if _, ok := decoded.Summary["robustness"]; !ok {
		t.Fatalf("Summary JSON missing robustness: %v", decoded.Summary)
	}
}

func TestScenarioChurnIsDeterministicAndActive(t *testing.T) {
	churn := taskdrop.ChurnConfig{MeanInterval: 200, MeanDown: 100, Seed: 7}
	a, err := tinyScenario(t, taskdrop.WithTrials(2), taskdrop.WithChurn(churn)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := tinyScenario(t, taskdrop.WithTrials(2), taskdrop.WithChurn(churn)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Trials, b.Trials) {
		t.Fatal("churned scenario is not reproducible across runs")
	}
	base, err := tinyScenario(t, taskdrop.WithTrials(2)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Trials, base.Trials) {
		t.Fatal("churn injection inert: churned trials identical to baseline")
	}
	// Distinct trials must draw distinct churn plans (seed offset by trial).
	if *a.Trials[0] == *a.Trials[1] {
		t.Fatal("trial churn plans not independently seeded")
	}
}

func TestScenarioEmptyChurnMatchesBaseline(t *testing.T) {
	// A zero-value churn config must leave the classic single-engine path
	// untouched: results byte-identical to a scenario that never mentioned
	// churn at all.
	base, err := tinyScenario(t, taskdrop.WithTrials(2)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	churned, err := tinyScenario(t, taskdrop.WithTrials(2), taskdrop.WithChurn(taskdrop.ChurnConfig{})).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	bb, err := json.Marshal(base.Trials)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := json.Marshal(churned.Trials)
	if err != nil {
		t.Fatal(err)
	}
	if string(bb) != string(cb) {
		t.Fatalf("empty churn plan perturbed results:\nbase    %s\nchurned %s", bb, cb)
	}
}

func TestScenarioChurnValidation(t *testing.T) {
	if _, err := taskdrop.NewScenario("video", taskdrop.WithChurn(taskdrop.ChurnConfig{MeanInterval: -1})); err == nil {
		t.Error("negative churn interval must be rejected")
	}
	if _, err := taskdrop.NewScenario("video", taskdrop.WithChurn(taskdrop.ChurnConfig{MeanInterval: 50})); err == nil {
		t.Error("enabled churn with MeanDown < 1 must be rejected")
	}
}

package sim

import (
	"math"
	"testing"

	"github.com/hpcclab/taskdrop/internal/pmf"
	"github.com/hpcclab/taskdrop/internal/workload"
)

func mkState(status Status, deadline, finish pmf.Tick) TaskState {
	return TaskState{
		Task:   workload.Task{Deadline: deadline},
		Status: status,
		Finish: finish,
	}
}

// tallied settles the states, in order, as arrivals 0..n-1 of an engine
// with the given grace and boundary exclusion, and reads the Result off
// its tally — the scorer itself, with no simulation around it.
func tallied(t *testing.T, states []TaskState, grace pmf.Tick, boundaryExclusion int) *Result {
	t.Helper()
	cfg := DefaultConfig()
	cfg.ReactiveGrace, cfg.BoundaryExclusion = grace, boundaryExclusion
	e := NewOpen(testMatrix(t, 1, pmf.Delta(10)), fifoMapper{}, nil, cfg)
	for i := range states {
		ts := states[i]
		ts.Seq = i
		e.live.Arrived++
		e.live.add(ts.Status, 1)
		e.settle(&ts)
	}
	return e.buildResult()
}

func TestTaskUtility(t *testing.T) {
	cases := []struct {
		name  string
		ts    TaskState
		grace pmf.Tick
		want  float64
	}{
		{"on-time", mkState(StatusCompletedOnTime, 100, 90), 10, 1},
		{"late-half-grace", mkState(StatusCompletedLate, 100, 105), 10, 0.5},
		{"late-at-deadline", mkState(StatusCompletedLate, 100, 100), 10, 1},
		{"late-beyond-grace", mkState(StatusCompletedLate, 100, 115), 10, 0},
		{"late-zero-grace", mkState(StatusCompletedLate, 100, 101), 0, 0},
		{"dropped", mkState(StatusDroppedProactive, 100, 0), 10, 0},
		{"failed", mkState(StatusFailed, 100, 50), 10, 0},
	}
	for _, c := range cases {
		if got := refTaskUtility(&c.ts, c.grace); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: reference utility = %v, want %v", c.name, got, c.want)
		}
		if got := tallied(t, []TaskState{c.ts}, c.grace, 0).UtilityPct; math.Abs(got-100*c.want) > 1e-12 {
			t.Errorf("%s: tallied utility = %v %%, want %v", c.name, got, 100*c.want)
		}
	}
}

func TestUtilityScoreAveragesMeasuredWindow(t *testing.T) {
	states := []TaskState{
		mkState(StatusCompletedOnTime, 100, 90),  // excluded (boundary)
		mkState(StatusCompletedOnTime, 100, 90),  // 1.0
		mkState(StatusCompletedLate, 100, 105),   // 0.5
		mkState(StatusDroppedProactive, 100, 0),  // 0.0
		mkState(StatusCompletedOnTime, 100, 200), // excluded (boundary)
	}
	want := 100 * (1 + 0.5 + 0) / 3
	if got := tallied(t, states, 10, 1).UtilityPct; math.Abs(got-want) > 1e-9 {
		t.Fatalf("score = %v, want %v", got, want)
	}
	if got := refUtilityScore(states, 10, 1); math.Abs(got-want) > 1e-9 {
		t.Fatalf("reference score = %v, want %v", got, want)
	}
}

func TestUtilityScoreDegenerate(t *testing.T) {
	if got := tallied(t, nil, 10, 0).UtilityPct; got != 0 {
		t.Fatalf("empty score = %v", got)
	}
	// Exclusion larger than the trace measures everything.
	states := []TaskState{mkState(StatusCompletedOnTime, 100, 90)}
	if got := tallied(t, states, 10, 5).UtilityPct; math.Abs(got-100) > 1e-12 {
		t.Fatalf("degenerate exclusion score = %v", got)
	}
}

func TestUtilityScoreAtLeastRobustness(t *testing.T) {
	// Realized utility with any grace dominates the strict on-time rate.
	m := testMatrix(t, 1, pmf.Delta(10))
	n := 40
	arr := make([]pmf.Tick, n)
	dl := make([]pmf.Tick, n)
	ex := make([]pmf.Tick, n)
	for i := range arr {
		arr[i] = pmf.Tick(i)
		dl[i] = arr[i] + 60
		ex[i] = 10
	}
	cfg := cfgNoExclusion()
	cfg.ReactiveGrace = 50
	res := New(m, makeTrace(arr, dl, ex), fifoMapper{}, nil, cfg).Run()
	if res.Late == 0 {
		t.Fatal("vacuous: no late completion to earn partial utility")
	}
	if res.UtilityPct < res.RobustnessPct-1e-9 {
		t.Fatalf("utility %v < robustness %v", res.UtilityPct, res.RobustnessPct)
	}
}

package sim

import (
	"testing"

	"github.com/hpcclab/taskdrop/internal/core"
	"github.com/hpcclab/taskdrop/internal/pet"
	"github.com/hpcclab/taskdrop/internal/pmf"
	"github.com/hpcclab/taskdrop/internal/workload"
)

// parityTrace builds a moderately oversubscribed random trace on a small
// two-type system so every decision path (map, defer, reactive drop,
// proactive drop) is exercised.
func parityMatrixAndTrace(t *testing.T, seed int64) (*pet.Matrix, *workload.Trace) {
	t.Helper()
	p := pet.Profile{
		Name:             "opentest",
		TaskTypeNames:    []string{"short", "long"},
		MachineTypeNames: []string{"fast", "slow"},
		MeanMS:           [][]float64{{20, 45}, {60, 130}},
		MachinesPerType:  []int{1, 1},
		PriceHour:        []float64{1, 0.5},
		GammaScaleRange:  [2]float64{1, 4},
	}
	m := pet.Build(p, 7, pet.BuildOptions{SamplesPerCell: 200, BinsPerPMF: 12})
	tr := workload.Generate(m, workload.Config{TotalTasks: 400, Window: 4000, GammaSlack: 1.5}, seed)
	return m, tr
}

// TestOpenEngineMatchesTraceDriven is the determinism keystone of the
// online service: feeding a trace task-by-task through an open engine must
// reproduce the trace-driven run exactly — same per-task terminal states,
// same machines, same Result.
func TestOpenEngineMatchesTraceDriven(t *testing.T) {
	for _, dropper := range []core.Policy{nil, core.NewHeuristic()} {
		m, tr := parityMatrixAndTrace(t, 11)
		cfg := cfgNoExclusion()

		offline := New(m, tr, MCTLike(t), dropper, cfg)
		offlineRec := Record(offline)
		wantRes := offline.Run()
		want := offlineRec.TaskStates()

		open := NewOpen(m, MCTLike(t), dropper, cfg)
		openRec := Record(open)
		for i := range tr.Tasks {
			open.Feed(&tr.Tasks[i])
		}
		gotRes := open.Drain()
		got := openRec.TaskStates()

		if *gotRes != *wantRes {
			t.Fatalf("dropper %v: open Result = %+v, want %+v", dropper, gotRes, wantRes)
		}
		if len(got) != len(want) {
			t.Fatalf("task count %d != %d", len(got), len(want))
		}
		for i := range got {
			if got[i].Status != want[i].Status || got[i].Machine != want[i].Machine ||
				got[i].Start != want[i].Start || got[i].Finish != want[i].Finish {
				t.Fatalf("dropper %v: task %d diverged: open %+v vs trace %+v",
					dropper, i, got[i], want[i])
			}
		}
	}
}

// MCTLike returns a deterministic real mapper for parity tests.
func MCTLike(t *testing.T) Mapper {
	t.Helper()
	return fifoMapper{}
}

// TestOpenEngineMatchesTraceDrivenWithFailures extends parity to the
// failure-injection path, whose RNG draws are event-driven.
func TestOpenEngineMatchesTraceDrivenWithFailures(t *testing.T) {
	m, tr := parityMatrixAndTrace(t, 5)
	cfg := cfgNoExclusion()
	cfg.Failures = FailureConfig{MTBF: 900, MeanRepair: 120, Seed: 3}

	offline := New(m, tr, fifoMapper{}, core.NewHeuristic(), cfg)
	wantRes := offline.Run()

	open := NewOpen(m, fifoMapper{}, core.NewHeuristic(), cfg)
	for i := range tr.Tasks {
		open.Feed(&tr.Tasks[i])
	}
	gotRes := open.Drain()

	if *gotRes != *wantRes {
		t.Fatalf("open Result = %+v, want %+v", gotRes, wantRes)
	}
}

func TestOpenFeedClampsEarlyArrival(t *testing.T) {
	m := testMatrix(t, 1, pmf.Delta(10))
	open := NewOpen(m, fifoMapper{}, nil, cfgNoExclusion())
	open.Feed(&workload.Task{ID: 0, Arrival: 50, Deadline: 200, ExecByType: []pmf.Tick{10}})
	// Arrival before the clock: treated as arriving now, not a clock reset.
	ts := open.Feed(&workload.Task{ID: 1, Arrival: 10, Deadline: 200, ExecByType: []pmf.Tick{10}})
	if open.Now() != 50 {
		t.Fatalf("clock = %d, want 50", open.Now())
	}
	if ts.Status != StatusQueued && ts.Status != StatusRunning {
		t.Fatalf("late-fed task status = %v", ts.Status)
	}
	res := open.Drain()
	if res.Total != 2 || res.OnTime != 2 {
		t.Fatalf("result = %+v", res)
	}
}

// TestLiveCountsStayConsistent cross-checks the incremental O(1) census
// against a full recount at every feed step and after drain, under
// proactive dropping and failure injection.
func TestLiveCountsStayConsistent(t *testing.T) {
	m, tr := parityMatrixAndTrace(t, 21)
	cfg := cfgNoExclusion()
	cfg.Failures = FailureConfig{MTBF: 700, MeanRepair: 90, Seed: 8}
	open := NewOpen(m, fifoMapper{}, core.NewHeuristic(), cfg)
	rec := Record(open)
	for i := range tr.Tasks {
		open.Feed(&tr.Tasks[i])
		if i%37 == 0 {
			if got, want := open.LiveCounts(), recount(open, rec); got != want || got.Arrived != i+1 {
				t.Fatalf("after feed %d: incremental %+v != recount %+v", i, got, want)
			}
		}
	}
	res := open.Drain()
	got, want := open.LiveCounts(), recount(open, rec)
	if got != want {
		t.Fatalf("after drain: incremental %+v != recount %+v", got, want)
	}
	if got.OnTime != res.OnTime || got.Failed != res.Failed || got.Batch+got.Queued+got.Running != 0 {
		t.Fatalf("census %+v inconsistent with result %+v", got, res)
	}
}

func TestOpenLiveCountsAndQueueDepths(t *testing.T) {
	m := testMatrix(t, 2, pmf.Delta(100))
	open := NewOpen(m, fifoMapper{}, nil, cfgNoExclusion())
	for i := 0; i < 5; i++ {
		open.Feed(&workload.Task{ID: i, Arrival: 1, Deadline: 10_000, ExecByType: []pmf.Tick{100}})
	}
	// fifoMapper fills machine 0 first: one running head, four pending.
	lc := open.LiveCounts()
	if lc.Arrived != 5 || lc.Running != 1 || lc.Queued != 4 {
		t.Fatalf("live = %+v", lc)
	}
	depths := open.QueueDepths()
	if len(depths) != 2 || depths[0]+depths[1] != 5 {
		t.Fatalf("depths = %v", depths)
	}
	if res := open.Drain(); res.OnTime != 5 {
		t.Fatalf("result = %+v", res)
	}
}

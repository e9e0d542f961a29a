package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"github.com/hpcclab/taskdrop/internal/core"
	"github.com/hpcclab/taskdrop/internal/pet"
	"github.com/hpcclab/taskdrop/internal/pmf"
	"github.com/hpcclab/taskdrop/internal/workload"
)

// fifoMapper assigns batch tasks in arrival order to the first machine
// with a free slot — the simplest legal mapper, used to make engine
// behaviour hand-checkable.
type fifoMapper struct{}

func (fifoMapper) Name() string { return "testFIFO" }

func (fifoMapper) Map(ev *MappingEvent) {
	for len(ev.Batch()) > 0 {
		assigned := false
		for _, m := range ev.Machines() {
			if ev.FreeSlots(m) > 0 {
				ev.Assign(ev.Batch()[0], m)
				assigned = true
				break
			}
		}
		if !assigned {
			return
		}
	}
}

// testMatrix builds a single-machine-type PET from explicit exec PMFs per
// task type.
func testMatrix(t testing.TB, machines int, cells ...pmf.PMF) *pet.Matrix {
	t.Helper()
	nt := len(cells)
	p := pet.Profile{
		Name:             "simtest",
		TaskTypeNames:    make([]string, nt),
		MachineTypeNames: []string{"m"},
		MeanMS:           make([][]float64, nt),
		MachinesPerType:  []int{machines},
		PriceHour:        []float64{3.6}, // $3.6/h = $0.001 per second → easy cost math
		GammaScaleRange:  [2]float64{1, 2},
	}
	rows := make([][]pmf.PMF, nt)
	for i := range cells {
		p.TaskTypeNames[i] = fmt.Sprintf("t%d", i)
		p.MeanMS[i] = []float64{cells[i].Mean()}
		rows[i] = []pmf.PMF{cells[i]}
	}
	return pet.FromPMFs(p, rows)
}

// makeTrace hand-crafts a trace; exec holds the realized execution time on
// the single machine type per task.
func makeTrace(arrivals, deadlines, exec []pmf.Tick) *workload.Trace {
	tasks := make([]workload.Task, len(arrivals))
	for i := range tasks {
		tasks[i] = workload.Task{
			ID:         i,
			Type:       0,
			Arrival:    arrivals[i],
			Deadline:   deadlines[i],
			ExecByType: []pmf.Tick{exec[i]},
		}
	}
	return &workload.Trace{
		Tasks: tasks,
		Cfg:   workload.Config{TotalTasks: len(tasks), Window: 1, GammaSlack: 0},
	}
}

func cfgNoExclusion() Config {
	c := DefaultConfig()
	c.BoundaryExclusion = 0
	return c
}

func TestSingleTaskCompletesOnTime(t *testing.T) {
	m := testMatrix(t, 1, pmf.Delta(10))
	tr := makeTrace([]pmf.Tick{5}, []pmf.Tick{100}, []pmf.Tick{10})
	e := New(m, tr, fifoMapper{}, nil, cfgNoExclusion())
	rec := Record(e)
	res := e.Run()
	if res.OnTime != 1 || res.Late != 0 || res.DroppedReactive != 0 {
		t.Fatalf("result = %+v", res)
	}
	ts := rec.TaskStates()[0]
	if ts.Start != 5 || ts.Finish != 15 {
		t.Fatalf("start/finish = %d/%d, want 5/15", ts.Start, ts.Finish)
	}
	if res.Makespan != 15 {
		t.Fatalf("makespan = %d", res.Makespan)
	}
}

func TestLateStartedTaskCompletesLate(t *testing.T) {
	// Task 0 occupies the machine until 100; task 1 starts at 100, before
	// its deadline 105, but finishes at 110 ≥ 105 → completed late, not
	// dropped (Eq. 1 semantics).
	m := testMatrix(t, 1, pmf.Delta(10))
	tr := makeTrace([]pmf.Tick{0, 1}, []pmf.Tick{200, 105}, []pmf.Tick{100, 10})
	e := New(m, tr, fifoMapper{}, nil, cfgNoExclusion())
	rec := Record(e)
	res := e.Run()
	if res.OnTime != 1 || res.Late != 1 {
		t.Fatalf("result = %+v", res)
	}
	ts := rec.TaskStates()[1]
	if ts.Status != StatusCompletedLate || ts.Start != 100 || ts.Finish != 110 {
		t.Fatalf("task 1 = %+v", ts)
	}
}

func TestReactiveDropWhenCannotStart(t *testing.T) {
	// Task 1's deadline (50) passes while task 0 runs until 100: it can
	// never begin before its deadline → reactive drop.
	m := testMatrix(t, 1, pmf.Delta(10))
	tr := makeTrace([]pmf.Tick{0, 1}, []pmf.Tick{200, 50}, []pmf.Tick{100, 10})
	res := New(m, tr, fifoMapper{}, nil, cfgNoExclusion()).Run()
	if res.OnTime != 1 || res.DroppedReactive != 1 {
		t.Fatalf("result = %+v", res)
	}
}

func TestDeadlineExactlyAtFinishIsLate(t *testing.T) {
	// On-time means strictly before the deadline (Eq. 2 sums t < δ).
	m := testMatrix(t, 1, pmf.Delta(10))
	tr := makeTrace([]pmf.Tick{0}, []pmf.Tick{10}, []pmf.Tick{10})
	res := New(m, tr, fifoMapper{}, nil, cfgNoExclusion()).Run()
	if res.Late != 1 || res.OnTime != 0 {
		t.Fatalf("finish==deadline should be late: %+v", res)
	}
}

func TestBatchExpiryReactiveDrop(t *testing.T) {
	// One machine, queue capacity 2, three long tasks: the third waits in
	// the batch past its deadline and must be reactively dropped there.
	cfg := cfgNoExclusion()
	cfg.QueueCap = 2
	m := testMatrix(t, 1, pmf.Delta(100))
	tr := makeTrace(
		[]pmf.Tick{0, 1, 2},
		[]pmf.Tick{150, 150, 90},
		[]pmf.Tick{100, 100, 100},
	)
	e := New(m, tr, fifoMapper{}, nil, cfg)
	rec := Record(e)
	res := e.Run()
	// Task 0 runs 0–100 (on time), task 1 runs 100–200 (starts 100 < 150,
	// finishes late), task 2 (deadline 90) expires in the batch before the
	// first slot frees at t=100 — it is never assigned to a machine.
	if res.OnTime != 1 || res.Late != 1 || res.DroppedReactive != 1 {
		t.Fatalf("result = %+v", res)
	}
	if st := rec.TaskStates()[2]; st.Status != StatusDroppedReactive || st.Machine != -1 {
		t.Fatalf("task 2 = %+v", st)
	}
}

func TestQueueCapacityRespected(t *testing.T) {
	cfg := cfgNoExclusion()
	cfg.QueueCap = 3
	m := testMatrix(t, 1, pmf.Delta(10))
	tr := makeTrace(
		[]pmf.Tick{0, 0, 0, 0, 0, 0},
		[]pmf.Tick{1000, 1000, 1000, 1000, 1000, 1000},
		[]pmf.Tick{10, 10, 10, 10, 10, 10},
	)
	e := New(m, tr, fifoMapper{}, nil, cfg)
	res := e.Run()
	if res.OnTime != 6 {
		t.Fatalf("result = %+v", res)
	}
	// All six completed; the queue bound forced sequential refills, which
	// the engine's invariants (no overfill panic) have already verified.
}

func TestCostAccounting(t *testing.T) {
	// Price is $3.6/h = $0.001/s; two tasks × 10 ticks (ms) = 20 ms busy
	// → $0.00002.
	m := testMatrix(t, 1, pmf.Delta(10))
	tr := makeTrace([]pmf.Tick{0, 0}, []pmf.Tick{1000, 1000}, []pmf.Tick{10, 10})
	res := New(m, tr, fifoMapper{}, nil, cfgNoExclusion()).Run()
	want := 20.0 / 3.6e6 * 3.6
	if math.Abs(res.TotalCostUSD-want) > 1e-12 {
		t.Fatalf("cost = %v, want %v", res.TotalCostUSD, want)
	}
	if res.BusyTicks != 20 {
		t.Fatalf("busy = %d", res.BusyTicks)
	}
}

func TestBoundaryExclusion(t *testing.T) {
	m := testMatrix(t, 1, pmf.Delta(1))
	n := 10
	arr := make([]pmf.Tick, n)
	dl := make([]pmf.Tick, n)
	ex := make([]pmf.Tick, n)
	for i := range arr {
		arr[i] = pmf.Tick(i * 10)
		dl[i] = arr[i] + 100
		ex[i] = 1
	}
	cfg := DefaultConfig()
	cfg.BoundaryExclusion = 3
	res := New(m, makeTrace(arr, dl, ex), fifoMapper{}, nil, cfg).Run()
	if res.Total != 10 || res.Measured != 4 {
		t.Fatalf("total/measured = %d/%d, want 10/4", res.Total, res.Measured)
	}
	if res.MOnTime != 4 || res.OnTime != 10 {
		t.Fatalf("on-time measured/total = %d/%d", res.MOnTime, res.OnTime)
	}
	// Degenerate: exclusion swallowing everything measures everything.
	cfg.BoundaryExclusion = 50
	res = New(m, makeTrace(arr, dl, ex), fifoMapper{}, nil, cfg).Run()
	if res.Measured != 10 {
		t.Fatalf("degenerate exclusion measured = %d, want 10", res.Measured)
	}
}

func TestProactiveDropperInvoked(t *testing.T) {
	// dropAllPending drops every pending (non-running, non-last) task.
	m := testMatrix(t, 1, pmf.Delta(50))
	tr := makeTrace(
		[]pmf.Tick{0, 0, 0},
		[]pmf.Tick{500, 500, 500},
		[]pmf.Tick{50, 50, 50},
	)
	e := New(m, tr, fifoMapper{}, dropFirstPending{}, cfgNoExclusion())
	res := e.Run()
	if res.DroppedProactive == 0 {
		t.Fatalf("proactive dropper never fired: %+v", res)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
}

// dropFirstPending is a malicious-ish but legal policy: always drop the
// first droppable task.
type dropFirstPending struct{}

func (dropFirstPending) Name() string { return "dropFirst" }
func (dropFirstPending) Decide(ctx *core.Context) []int {
	first := 0
	if len(ctx.Queue) > 0 && ctx.Queue[0].Running {
		first = 1
	}
	if len(ctx.Queue)-first < 2 {
		return nil
	}
	return []int{first}
}

// invalidDropper returns the running task's index to confirm the engine
// rejects it.
type invalidDropper struct{}

func (invalidDropper) Name() string { return "invalid" }
func (invalidDropper) Decide(ctx *core.Context) []int {
	if len(ctx.Queue) > 1 && ctx.Queue[0].Running {
		return []int{0}
	}
	return nil
}

func TestEngineRejectsInvalidDrop(t *testing.T) {
	m := testMatrix(t, 1, pmf.Delta(100))
	tr := makeTrace(
		[]pmf.Tick{0, 0, 60},
		[]pmf.Tick{500, 500, 500},
		[]pmf.Tick{100, 100, 100},
	)
	// DropOnArrival makes the dropper run at t=60, while the head is
	// running and a pending task sits behind it.
	cfg := cfgNoExclusion()
	cfg.DropOnArrival = true
	defer func() {
		if recover() == nil {
			t.Fatal("engine must panic on a drop of the running task")
		}
	}()
	New(m, tr, fifoMapper{}, invalidDropper{}, cfg).Run()
}

func TestDeterministicReplay(t *testing.T) {
	m := pet.Build(pet.VideoProfile(), 1, pet.BuildOptions{SamplesPerCell: 150, BinsPerPMF: 15})
	cfg := workload.Config{TotalTasks: 400, Window: 4000, GammaSlack: 2}
	tr := workload.Generate(m, cfg, 9)
	run := func() *Result {
		return New(m, tr, fifoMapper{}, core.NewHeuristic(), DefaultConfig()).Run()
	}
	a, b := run(), run()
	if *a != *b {
		t.Fatalf("same inputs, different results:\n%+v\n%+v", a, b)
	}
}

func TestConservationAcrossDroppers(t *testing.T) {
	m := pet.Build(pet.VideoProfile(), 1, pet.BuildOptions{SamplesPerCell: 150, BinsPerPMF: 15})
	cfg := workload.Config{TotalTasks: 600, Window: 3000, GammaSlack: 2}
	tr := workload.Generate(m, cfg, 10)
	droppers := []core.Policy{nil, core.ReactiveOnly{}, core.NewHeuristic(), core.Optimal{}, core.NewThreshold()}
	for i, dp := range droppers {
		res := New(m, tr, fifoMapper{}, dp, DefaultConfig()).Run()
		if err := res.Validate(); err != nil {
			t.Fatalf("dropper %d: %v", i, err)
		}
		if res.Total != 600 {
			t.Fatalf("dropper %d: total = %d", i, res.Total)
		}
	}
}

func TestStatusStringAndTerminal(t *testing.T) {
	cases := map[Status]string{
		StatusBatch:            "batch",
		StatusQueued:           "queued",
		StatusRunning:          "running",
		StatusCompletedOnTime:  "completed-on-time",
		StatusCompletedLate:    "completed-late",
		StatusDroppedReactive:  "dropped-reactive",
		StatusDroppedProactive: "dropped-proactive",
		Status(99):             "Status(99)",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("Status(%d).String() = %q, want %q", s, got, want)
		}
	}
	if StatusRunning.Terminal() || !StatusCompletedLate.Terminal() {
		t.Error("Terminal misclassifies states")
	}
}

func TestResultValidateDetectsCorruption(t *testing.T) {
	r := &Result{Total: 5, OnTime: 2, Late: 1, DroppedReactive: 1, DroppedProactive: 1}
	if err := r.Validate(); err != nil {
		t.Fatalf("valid result rejected: %v", err)
	}
	r.OnTime = 3
	if err := r.Validate(); err == nil {
		t.Fatal("corrupted result accepted")
	}
}

func TestDropReactiveShare(t *testing.T) {
	r := &Result{MDroppedReactive: 7, MDroppedProactive: 93}
	if got := r.DropReactiveShare(); math.Abs(got-0.07) > 1e-12 {
		t.Fatalf("share = %v", got)
	}
	if got := (&Result{}).DropReactiveShare(); got != 0 {
		t.Fatalf("empty share = %v", got)
	}
}

func TestNewPanicsOnBadInputs(t *testing.T) {
	m := testMatrix(t, 1, pmf.Delta(10))
	tr := makeTrace([]pmf.Tick{0}, []pmf.Tick{10}, []pmf.Tick{5})
	for i, f := range []func(){
		func() { New(nil, tr, fifoMapper{}, nil, DefaultConfig()) },
		func() { New(m, nil, fifoMapper{}, nil, DefaultConfig()) },
		func() { New(m, tr, nil, nil, DefaultConfig()) },
		func() { New(m, tr, fifoMapper{}, nil, Config{QueueCap: 0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestMappingEventGuards(t *testing.T) {
	m := testMatrix(t, 2, pmf.Delta(10))
	tr := makeTrace([]pmf.Tick{0, 0}, []pmf.Tick{1000, 1000}, []pmf.Tick{10, 10})

	// A mapper that assigns the same task twice must trip the engine.
	bad := funcMapper(func(ev *MappingEvent) {
		if len(ev.Batch()) == 0 {
			return
		}
		ts := ev.Batch()[0]
		ev.Assign(ts, ev.Machines()[0])
		ev.Assign(ts, ev.Machines()[1]) // not in batch anymore → panic
	})
	defer func() {
		if recover() == nil {
			t.Fatal("double assign must panic")
		}
	}()
	New(m, tr, bad, nil, cfgNoExclusion()).Run()
}

// funcMapper adapts a function to the Mapper interface.
type funcMapper func(ev *MappingEvent)

func (funcMapper) Name() string           { return "func" }
func (f funcMapper) Map(ev *MappingEvent) { f(ev) }

func TestCandidateCompletionMatchesCalculus(t *testing.T) {
	// The cached tail completion must agree with a from-scratch chain.
	m := testMatrix(t, 1, pmf.Delta(10))
	tr := makeTrace(
		[]pmf.Tick{0, 0, 0},
		[]pmf.Tick{500, 500, 500},
		[]pmf.Tick{10, 10, 10},
	)
	var checked bool
	probe := funcMapper(func(ev *MappingEvent) {
		for len(ev.Batch()) > 0 {
			mach := ev.Machines()[0]
			if ev.FreeSlots(mach) == 0 {
				return
			}
			ts := ev.Batch()[0]
			got := ev.CandidateCompletion(ts, mach)
			// Reference: chain over the machine's core queue + candidate.
			q := mach.coreQueue(ev.Now())
			q = append(q, core.QueueTask{Type: ts.Task.Type, Deadline: ts.Task.Deadline})
			want := ev.Calculus().CompletionPMFs(mach.Type(), ev.Now(), q)[len(q)-1]
			if !got.ApproxEqual(want, 1e-9) {
				t.Errorf("candidate completion mismatch:\n got %v\nwant %v", got, want)
			}
			checked = true
			ev.Assign(ts, mach)
		}
	})
	New(m, tr, probe, nil, cfgNoExclusion()).Run()
	if !checked {
		t.Fatal("probe mapper never ran")
	}
}

func TestRunContextCancellation(t *testing.T) {
	m := pet.Build(pet.VideoProfile(), 1, pet.BuildOptions{SamplesPerCell: 150, BinsPerPMF: 15})
	tr := workload.Generate(m, workload.Config{TotalTasks: 300, Window: 3000, GammaSlack: 2}, 11)

	// A pre-cancelled context stops the run before the first event.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := New(m, tr, fifoMapper{}, nil, DefaultConfig()).RunContext(ctx)
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("RunContext = %v, %v; want nil, context.Canceled", res, err)
	}

	// Cancelling mid-run (from a mapper callback) stops between events.
	ctx, cancel = context.WithCancel(context.Background())
	events := 0
	tripwire := funcMapper(func(ev *MappingEvent) {
		events++
		if events == 10 {
			cancel()
		}
		fifoMapper{}.Map(ev)
	})
	res, err = New(m, tr, tripwire, nil, DefaultConfig()).RunContext(ctx)
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("mid-run RunContext = %v, %v; want nil, context.Canceled", res, err)
	}
	if events >= 300 {
		t.Fatalf("engine processed %d mapping events after cancellation", events)
	}

	// The background context reproduces Run exactly.
	a := New(m, tr, fifoMapper{}, nil, DefaultConfig()).Run()
	b, err := New(m, tr, fifoMapper{}, nil, DefaultConfig()).RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Fatalf("Run and RunContext diverged:\n%+v\n%+v", a, b)
	}
}

func TestUtilizationBounds(t *testing.T) {
	m := pet.Build(pet.VideoProfile(), 1, pet.BuildOptions{SamplesPerCell: 150, BinsPerPMF: 15})
	tr := workload.Generate(m, workload.Config{TotalTasks: 300, Window: 3000, GammaSlack: 2}, 11)
	res := New(m, tr, fifoMapper{}, core.NewHeuristic(), DefaultConfig()).Run()
	if res.UtilizationPct < 0 || res.UtilizationPct > 100 {
		t.Fatalf("utilization = %v", res.UtilizationPct)
	}
	if res.RobustnessPct < 0 || res.RobustnessPct > 100 {
		t.Fatalf("robustness = %v", res.RobustnessPct)
	}
}

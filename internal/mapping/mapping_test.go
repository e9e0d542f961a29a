package mapping_test

import (
	"fmt"
	"testing"

	"github.com/hpcclab/taskdrop/internal/core"
	"github.com/hpcclab/taskdrop/internal/mapping"
	"github.com/hpcclab/taskdrop/internal/pet"
	"github.com/hpcclab/taskdrop/internal/pmf"
	"github.com/hpcclab/taskdrop/internal/sim"
	"github.com/hpcclab/taskdrop/internal/workload"
)

// matrix2 builds a PET with len(cells) task types on two machine types
// (one machine each): cells[i] = {execPMF on m0, execPMF on m1}.
func matrix2(t testing.TB, cells ...[2]pmf.PMF) *pet.Matrix {
	t.Helper()
	nt := len(cells)
	p := pet.Profile{
		Name:             "maptest",
		TaskTypeNames:    make([]string, nt),
		MachineTypeNames: []string{"m0", "m1"},
		MeanMS:           make([][]float64, nt),
		MachinesPerType:  []int{1, 1},
		PriceHour:        []float64{0.1, 0.1},
		GammaScaleRange:  [2]float64{1, 2},
	}
	rows := make([][]pmf.PMF, nt)
	for i, c := range cells {
		p.TaskTypeNames[i] = fmt.Sprintf("t%d", i)
		p.MeanMS[i] = []float64{c[0].Mean(), c[1].Mean()}
		rows[i] = []pmf.PMF{c[0], c[1]}
	}
	return pet.FromPMFs(p, rows)
}

// run2 executes a hand-built trace on the two-machine matrix and returns
// the final task states.
func run2(t testing.TB, m *pet.Matrix, mapperName string, tasks []workload.Task) []sim.TaskState {
	return runWith(t, m, mapperName, tasks, 0)
}

// runWith is run2 with an explicit queue capacity (0 = default).
func runWith(t testing.TB, m *pet.Matrix, mapperName string, tasks []workload.Task, queueCap int) []sim.TaskState {
	t.Helper()
	mapper, err := mapping.FromSpec(mapperName)
	if err != nil {
		t.Fatal(err)
	}
	tr := &workload.Trace{Tasks: tasks, Cfg: workload.Config{TotalTasks: len(tasks), Window: 1}}
	cfg := sim.DefaultConfig()
	cfg.BoundaryExclusion = 0
	if queueCap > 0 {
		cfg.QueueCap = queueCap
	}
	e := sim.New(m, tr, mapper, core.ReactiveOnly{}, cfg)
	rec := sim.Record(e)
	res := e.Run()
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	return rec.TaskStates()
}

// matrix1 builds a PET with len(cells) task types on one machine type.
func matrix1(t testing.TB, cells ...pmf.PMF) *pet.Matrix {
	t.Helper()
	nt := len(cells)
	p := pet.Profile{
		Name:             "maptest1",
		TaskTypeNames:    make([]string, nt),
		MachineTypeNames: []string{"m0"},
		MeanMS:           make([][]float64, nt),
		MachinesPerType:  []int{1},
		PriceHour:        []float64{0.1},
		GammaScaleRange:  [2]float64{1, 2},
	}
	rows := make([][]pmf.PMF, nt)
	for i, c := range cells {
		p.TaskTypeNames[i] = fmt.Sprintf("t%d", i)
		p.MeanMS[i] = []float64{c.Mean()}
		rows[i] = []pmf.PMF{c}
	}
	return pet.FromPMFs(p, rows)
}

func task1(id int, tt pet.TaskType, arr, dl pmf.Tick, exec pmf.Tick) workload.Task {
	return workload.Task{ID: id, Type: tt, Arrival: arr, Deadline: dl, ExecByType: []pmf.Tick{exec}}
}

func task(id int, tt pet.TaskType, arr, dl pmf.Tick, exec0, exec1 pmf.Tick) workload.Task {
	return workload.Task{
		ID: id, Type: tt, Arrival: arr, Deadline: dl,
		ExecByType: []pmf.Tick{exec0, exec1},
	}
}

func TestNewAndNames(t *testing.T) {
	for _, name := range mapping.Names() {
		m, err := mapping.FromSpec(name)
		if err != nil {
			t.Errorf("FromSpec(%q): %v", name, err)
			continue
		}
		if m.Name() == "" {
			t.Errorf("%q has empty Name()", name)
		}
	}
	if _, err := mapping.FromSpec("minmin"); err != nil {
		t.Error("lower-case alias failed")
	}
	if _, err := mapping.FromSpec("mm"); err != nil {
		t.Error("MM alias failed")
	}
	if _, err := mapping.FromSpec("unknown-heuristic"); err == nil {
		t.Error("unknown name must error")
	}
}

func TestMinMinPrefersFastestCompletion(t *testing.T) {
	// Type 0 runs 10 ms on m0, 50 ms on m1. Two tasks: MinMin stacks both
	// on m0 (completions 10 and 20 both beat 50).
	m := matrix2(t, [2]pmf.PMF{pmf.Delta(10), pmf.Delta(50)})
	tasks := []workload.Task{
		task(0, 0, 0, 1000, 10, 50),
		task(1, 0, 0, 1000, 10, 50),
	}
	sts := run2(t, m, "MinMin", tasks)
	if sts[0].Machine != 0 || sts[1].Machine != 0 {
		t.Fatalf("machines = %d,%d, want 0,0", sts[0].Machine, sts[1].Machine)
	}
}

func TestFCFSBalancesByAvailability(t *testing.T) {
	// Same setup as MinMin test, but FCFS sends task 1 to the idle m1
	// (availability 0 beats m0's queue mean 10)? No: FCFS picks the
	// machine minimizing the candidate completion mean — m0 gives 20,
	// m1 gives 50 → still m0. Make m1 only slightly slower so the idle
	// machine wins for the second task.
	m := matrix2(t, [2]pmf.PMF{pmf.Delta(10), pmf.Delta(15)})
	tasks := []workload.Task{
		task(0, 0, 0, 1000, 10, 15),
		task(1, 0, 0, 1000, 10, 15),
	}
	sts := run2(t, m, "FCFS", tasks)
	if sts[0].Machine != 0 || sts[1].Machine != 1 {
		t.Fatalf("machines = %d,%d, want 0,1", sts[0].Machine, sts[1].Machine)
	}
}

// deadlineOrderScenario sets up one machine with queue capacity 1: a
// blocker occupies it until t=30 while tasks with different deadlines
// accumulate in the batch, so the mapper's batch ordering becomes visible
// at completion events.
func deadlineOrderScenario(t testing.TB, mapperName string) []sim.TaskState {
	t.Helper()
	m := matrix1(t,
		pmf.Delta(30), // type 0: blocker
		pmf.Delta(10), // type 1: workload
	)
	tasks := []workload.Task{
		task1(0, 0, 0, 10000, 30), // blocker, runs 0–30
		task1(1, 1, 1, 900, 10),   // latest deadline, arrives first
		task1(2, 1, 2, 70, 10),    // soonest deadline
		task1(3, 1, 3, 400, 10),   // middle deadline
	}
	return runWith(t, m, mapperName, tasks, 1)
}

func TestMSDPicksSoonestDeadlineFirst(t *testing.T) {
	sts := deadlineOrderScenario(t, "MSD")
	if !(sts[2].Start < sts[3].Start && sts[3].Start < sts[1].Start) {
		t.Fatalf("starts = %d,%d,%d: want soonest-deadline order 2,3,1",
			sts[1].Start, sts[2].Start, sts[3].Start)
	}
}

func TestEDFPicksEarliestDeadline(t *testing.T) {
	sts := deadlineOrderScenario(t, "EDF")
	if !(sts[2].Start < sts[3].Start && sts[3].Start < sts[1].Start) {
		t.Fatalf("starts = %d,%d,%d: want deadline order 2,3,1",
			sts[1].Start, sts[2].Start, sts[3].Start)
	}
}

func TestFCFSKeepsArrivalOrderUnderContention(t *testing.T) {
	sts := deadlineOrderScenario(t, "FCFS")
	if !(sts[1].Start < sts[2].Start && sts[2].Start < sts[3].Start) {
		t.Fatalf("starts = %d,%d,%d: want arrival order 1,2,3",
			sts[1].Start, sts[2].Start, sts[3].Start)
	}
}

func TestSJFPicksShortestJob(t *testing.T) {
	// Type 0 is long (100), type 1 short (10). The short task must start
	// first even though the long one arrived first.
	m := matrix2(t,
		[2]pmf.PMF{pmf.Delta(100), pmf.Delta(100)},
		[2]pmf.PMF{pmf.Delta(10), pmf.Delta(10)},
	)
	tasks := []workload.Task{
		task(0, 0, 0, 10000, 100, 100),
		task(1, 1, 0, 10000, 10, 10),
		task(2, 0, 0, 10000, 100, 100),
	}
	sts := run2(t, m, "SJF", tasks)
	if sts[1].Start != 0 {
		t.Fatalf("short task started at %d, want 0", sts[1].Start)
	}
}

func TestPAMPrefersChanceOfSuccessOverECT(t *testing.T) {
	// m0: bimodal {1: 0.5, 120: 0.5} → mean 60.5 but CoS(dl=100) = 0.5.
	// m1: Delta(90) → mean 90, CoS = 1. MinMin picks m0; PAM must pick m1.
	bimodal := pmf.FromImpulses([]pmf.Impulse{{T: 1, P: 0.5}, {T: 120, P: 0.5}})
	m := matrix2(t, [2]pmf.PMF{bimodal, pmf.Delta(90)})
	tasks := []workload.Task{task(0, 0, 0, 100, 120, 90)}

	if sts := run2(t, m, "PAM", tasks); sts[0].Machine != 1 {
		t.Fatalf("PAM machine = %d, want 1 (higher CoS)", sts[0].Machine)
	}
	if sts := run2(t, m, "MinMin", tasks); sts[0].Machine != 0 {
		t.Fatalf("MinMin machine = %d, want 0 (lower mean completion)", sts[0].Machine)
	}
}

func TestMETIsLoadBlind(t *testing.T) {
	// m0 marginally faster in execution: MET stacks everything on m0;
	// FCFS, which minimizes expected completion, spreads to the idle m1
	// when m0's queue grows.
	m := matrix2(t, [2]pmf.PMF{pmf.Delta(10), pmf.Delta(12)})
	mk := func() []workload.Task {
		return []workload.Task{
			task(0, 0, 0, 10000, 10, 12),
			task(1, 0, 0, 10000, 10, 12),
			task(2, 0, 0, 10000, 10, 12),
		}
	}
	met := run2(t, m, "MET", mk())
	for i, st := range met {
		if st.Machine != 0 {
			t.Fatalf("MET task %d on machine %d, want 0", i, st.Machine)
		}
	}
	fcfs := run2(t, m, "FCFS", mk())
	onM1 := 0
	for _, st := range fcfs {
		if st.Machine == 1 {
			onM1++
		}
	}
	if onM1 == 0 {
		t.Fatal("FCFS never used the idle slower machine")
	}
}

func TestKPBRestrictsToBestExecSubset(t *testing.T) {
	// KPB at 50% over two machines considers only the single best-exec
	// machine per task: everything lands on m0 regardless of its queue.
	m := matrix2(t, [2]pmf.PMF{pmf.Delta(10), pmf.Delta(11)})
	tasks := []workload.Task{
		task(0, 0, 0, 10000, 10, 11),
		task(1, 0, 0, 10000, 10, 11),
		task(2, 0, 0, 10000, 10, 11),
	}
	mapper := mapping.KPB{Percent: 50}
	tr := &workload.Trace{Tasks: tasks, Cfg: workload.Config{TotalTasks: len(tasks), Window: 1}}
	cfg := sim.DefaultConfig()
	cfg.BoundaryExclusion = 0
	e := sim.New(m, tr, mapper, core.ReactiveOnly{}, cfg)
	rec := sim.Record(e)
	e.Run()
	for i, st := range rec.TaskStates() {
		if st.Machine != 0 {
			t.Fatalf("KPB task %d on machine %d, want 0", i, st.Machine)
		}
	}
}

// TestAllMappersSurviveRealisticWorkload is the integration smoke test:
// every registered heuristic must drain a generated oversubscribed trace
// without violating engine invariants, under every dropping policy.
func TestAllMappersSurviveRealisticWorkload(t *testing.T) {
	m := pet.Build(pet.VideoProfile(), 1, pet.BuildOptions{SamplesPerCell: 150, BinsPerPMF: 15})
	tr := workload.Generate(m, workload.Config{TotalTasks: 500, Window: 2500, GammaSlack: 2}, 13)
	droppers := []core.Policy{core.ReactiveOnly{}, core.Heuristic{Beta: core.DefaultBeta, Eta: core.DefaultEta}, core.Optimal{}, core.Threshold{Base: core.DefaultThresholdBase, Adaptive: true}}
	for _, name := range mapping.Names() {
		for _, dp := range droppers {
			mapper, err := mapping.FromSpec(name)
			if err != nil {
				t.Fatal(err)
			}
			res := sim.New(m, tr, mapper, dp, sim.DefaultConfig()).Run()
			if err := res.Validate(); err != nil {
				t.Fatalf("%s+%s: %v", name, dp.Name(), err)
			}
		}
	}
}

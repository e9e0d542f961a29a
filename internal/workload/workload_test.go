package workload

import (
	"math"
	"testing"

	"github.com/hpcclab/taskdrop/internal/pet"
	"github.com/hpcclab/taskdrop/internal/pmf"
)

func testMatrix(t testing.TB) *pet.Matrix {
	t.Helper()
	return pet.Build(pet.VideoProfile(), 1, pet.BuildOptions{SamplesPerCell: 200, BinsPerPMF: 20})
}

func TestGenerateBasics(t *testing.T) {
	m := testMatrix(t)
	cfg := Config{TotalTasks: 5000, Window: 50_000, GammaSlack: 2}
	tr := Generate(m, cfg, 1)
	if tr.Len() != 5000 {
		t.Fatalf("len = %d", tr.Len())
	}
	for i, task := range tr.Tasks {
		if task.ID != i {
			t.Fatalf("task %d has ID %d", i, task.ID)
		}
		if int(task.Type) < 0 || int(task.Type) >= m.NumTaskTypes() {
			t.Fatalf("task %d type %d out of range", i, task.Type)
		}
		if task.Deadline <= task.Arrival {
			t.Fatalf("task %d deadline %d <= arrival %d", i, task.Deadline, task.Arrival)
		}
		if len(task.ExecByType) != m.NumMachineTypes() {
			t.Fatalf("task %d has %d exec draws", i, len(task.ExecByType))
		}
		for mt, e := range task.ExecByType {
			if e < 1 {
				t.Fatalf("task %d exec on type %d = %d < 1", i, mt, e)
			}
		}
		if i > 0 && task.Arrival < tr.Tasks[i-1].Arrival {
			t.Fatalf("arrivals not sorted at %d", i)
		}
	}
}

func TestDeadlineRule(t *testing.T) {
	m := testMatrix(t)
	cfg := Config{TotalTasks: 2000, Window: 20_000, GammaSlack: 1.5}
	tr := Generate(m, cfg, 2)
	for _, task := range tr.Tasks {
		wantSlack := pmf.Tick(m.TypeMean(task.Type) + cfg.GammaSlack*m.MeanAll() + 0.5)
		if got := task.Deadline - task.Arrival; got != wantSlack {
			t.Fatalf("task %d slack = %d, want %d (δ = arr + avg_i + γ·avg_all)", task.ID, got, wantSlack)
		}
	}
}

func TestEveryTaskIndividuallyFeasible(t *testing.T) {
	// §V-A: "every single task is individually feasible": its slack must
	// exceed its mean execution time on at least one machine type.
	m := testMatrix(t)
	tr := Generate(m, Config{TotalTasks: 3000, Window: 30_000, GammaSlack: 1}, 3)
	for _, task := range tr.Tasks {
		best := math.Inf(1)
		for j := 0; j < m.NumMachineTypes(); j++ {
			best = math.Min(best, m.CellMean(task.Type, pet.MachineType(j)))
		}
		if slack := task.Deadline - task.Arrival; float64(slack) <= best {
			t.Fatalf("task %d slack %d <= best mean exec %v", task.ID, slack, best)
		}
	}
}

func TestArrivalRateMatchesConfig(t *testing.T) {
	m := testMatrix(t)
	cfg := Config{TotalTasks: 20_000, Window: 100_000, GammaSlack: 1}
	tr := Generate(m, cfg, 4)
	last := tr.Tasks[len(tr.Tasks)-1].Arrival
	// Poisson process: N arrivals with mean gap Window/N should span
	// roughly the window (within 5%).
	if math.Abs(float64(last)-float64(cfg.Window)) > 0.05*float64(cfg.Window) {
		t.Fatalf("last arrival %d, want ≈%d", last, cfg.Window)
	}
	if got, want := tr.ArrivalRate(), 0.2; math.Abs(got-want) > 1e-12 {
		t.Fatalf("ArrivalRate = %v, want %v", got, want)
	}
}

func TestTaskTypeMixIsUniform(t *testing.T) {
	m := testMatrix(t)
	tr := Generate(m, Config{TotalTasks: 40_000, Window: 100_000, GammaSlack: 1}, 5)
	counts := make([]int, m.NumTaskTypes())
	for _, task := range tr.Tasks {
		counts[task.Type]++
	}
	want := float64(tr.Len()) / float64(m.NumTaskTypes())
	for tt, n := range counts {
		if math.Abs(float64(n)-want) > 0.05*want {
			t.Fatalf("type %d count %d, want ≈%v", tt, n, want)
		}
	}
}

func TestGenerateDeterminism(t *testing.T) {
	m := testMatrix(t)
	cfg := Config{TotalTasks: 1000, Window: 10_000, GammaSlack: 1}
	a := Generate(m, cfg, 42)
	b := Generate(m, cfg, 42)
	for i := range a.Tasks {
		ta, tb := a.Tasks[i], b.Tasks[i]
		if ta.Arrival != tb.Arrival || ta.Type != tb.Type || ta.Deadline != tb.Deadline {
			t.Fatalf("task %d differs across identical generations", i)
		}
		for j := range ta.ExecByType {
			if ta.ExecByType[j] != tb.ExecByType[j] {
				t.Fatalf("task %d exec draw %d differs", i, j)
			}
		}
	}
	c := Generate(m, cfg, 43)
	if c.Tasks[0].Arrival == a.Tasks[0].Arrival && c.Tasks[1].Arrival == a.Tasks[1].Arrival {
		t.Fatal("different seeds produced identical arrivals")
	}
}

func TestExecDrawsFollowPET(t *testing.T) {
	m := testMatrix(t)
	tr := Generate(m, Config{TotalTasks: 30_000, Window: 60_000, GammaSlack: 1}, 6)
	// Realized draws per (type, machine type) must track the ground-truth
	// means.
	sums := make([][]float64, m.NumTaskTypes())
	counts := make([]int, m.NumTaskTypes())
	for i := range sums {
		sums[i] = make([]float64, m.NumMachineTypes())
	}
	for _, task := range tr.Tasks {
		counts[task.Type]++
		for j, e := range task.ExecByType {
			sums[task.Type][j] += float64(e)
		}
	}
	for i := 0; i < m.NumTaskTypes(); i++ {
		for j := 0; j < m.NumMachineTypes(); j++ {
			got := sums[i][j] / float64(counts[i])
			want := m.Profile().MeanMS[i][j] // the ground-truth Gamma law's mean
			if math.Abs(got-want) > 0.08*want+1 {
				t.Fatalf("realized mean (%d,%d) = %v, want ≈%v", i, j, got, want)
			}
		}
	}
}

func TestScaled(t *testing.T) {
	cfg := Config{TotalTasks: 20_000, Window: 130_000, GammaSlack: 3}
	s := cfg.Scaled(0.1)
	if s.TotalTasks != 2000 || s.Window != 13_000 {
		t.Fatalf("Scaled = %+v", s)
	}
	if s.GammaSlack != cfg.GammaSlack {
		t.Fatal("Scaled must not change γ")
	}
	// Intensity preserved.
	a := float64(cfg.TotalTasks) / float64(cfg.Window)
	b := float64(s.TotalTasks) / float64(s.Window)
	if math.Abs(a-b) > 1e-6 {
		t.Fatalf("intensity changed: %v -> %v", a, b)
	}
	if tiny := (Config{TotalTasks: 3, Window: 5, GammaSlack: 1}).Scaled(0.01); tiny.TotalTasks < 1 || tiny.Window < 1 {
		t.Fatalf("degenerate scale: %+v", tiny)
	}
}

func TestScaledPanicsOutOfRange(t *testing.T) {
	for _, f := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Scaled(%v) should panic", f)
				}
			}()
			Config{TotalTasks: 10, Window: 10, GammaSlack: 1}.Scaled(f)
		}()
	}
}

func TestConfigValidate(t *testing.T) {
	good := Config{TotalTasks: 1, Window: 1, GammaSlack: 0}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{TotalTasks: 0, Window: 1, GammaSlack: 1},
		{TotalTasks: 1, Window: 0, GammaSlack: 1},
		{TotalTasks: 1, Window: 1, GammaSlack: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should not validate", i)
		}
	}
}

func TestGeneratePanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Generate(testMatrix(t), Config{}, 1)
}

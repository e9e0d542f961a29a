// Package workload generates the online task traces the simulator runs:
// Poisson arrivals of uniformly mixed task types over a fixed window, with
// per-task hard deadlines following the paper's rule (§V-A)
//
//	δ_i = arr_i + avg_i + γ·avg_all
//
// where avg_i is the mean execution time of the task's type across machine
// types and avg_all is the grand mean over the PET matrix.
//
// Realized execution times are pre-drawn per machine type from the
// ground-truth Gamma laws, so a trace is identical across schedulers — the
// comparisons in the evaluation are paired, and results are reproducible
// from (profile, seed) alone.
package workload

import (
	"fmt"
	"sort"

	"github.com/hpcclab/taskdrop/internal/pet"
	"github.com/hpcclab/taskdrop/internal/pmf"
	"github.com/hpcclab/taskdrop/internal/stats"
)

// Task is one arriving task instance.
type Task struct {
	ID       int          // arrival-order index, 0-based
	Type     pet.TaskType // row of the PET matrix
	Arrival  pmf.Tick     // arrival time
	Deadline pmf.Tick     // individual hard deadline (absolute)
	// ExecByType[mt] is the realized execution time on a machine of type
	// mt, pre-drawn from the ground-truth law of the (Type, mt) PET cell.
	ExecByType []pmf.Tick
}

// Config parameterizes trace generation.
type Config struct {
	// TotalTasks is the number of arrivals (the paper's oversubscription
	// levels: 20k, 30k, 40k over the same window).
	TotalTasks int
	// Window is the arrival window length in ticks; arrivals form a
	// Poisson process with rate TotalTasks/Window.
	Window pmf.Tick
	// GammaSlack is γ of the deadline rule.
	GammaSlack float64
}

// StandardWindow is the arrival window used by the paper-scale
// experiments: 130 s. With the eight-machine SPEC system (whose effective
// service rate under completion-time-aware mapping is ≈120 tasks/s thanks
// to inconsistent heterogeneity) the 20k/30k/40k task counts correspond to
// ≈1.3×, 1.9× and 2.6× the system's capacity — every level oversubscribes
// the system, as §V-A requires.
const StandardWindow pmf.Tick = 130_000

// DefaultGammaSlack is the deadline slack coefficient γ. Calibrated so
// that the robustness bands and orderings of the paper's figures are
// reproduced (≈30–55% tasks on time across the three oversubscription
// levels with PAM; see EXPERIMENTS.md).
const DefaultGammaSlack = 3.0

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.TotalTasks <= 0 {
		return fmt.Errorf("workload: TotalTasks = %d, want > 0", c.TotalTasks)
	}
	if c.Window <= 0 {
		return fmt.Errorf("workload: Window = %d, want > 0", c.Window)
	}
	if c.GammaSlack < 0 {
		return fmt.Errorf("workload: GammaSlack = %v, want >= 0", c.GammaSlack)
	}
	return nil
}

// CheckScale validates a Scaled shrink factor, for callers (the CLI
// flags) that surface configuration errors instead of panicking.
func CheckScale(f float64) error {
	if f <= 0 || f > 1 {
		return fmt.Errorf("workload: scale factor %v out of range (0,1]; raise TotalTasks to increase load", f)
	}
	return nil
}

// Scaled returns the configuration shrunk by factor f in (0, 1]: task count
// and window scale together, preserving the arrival intensity (and hence
// the oversubscription level) while shortening the trial.
func (c Config) Scaled(f float64) Config {
	if err := CheckScale(f); err != nil {
		panic(err)
	}
	out := c
	out.TotalTasks = int(float64(c.TotalTasks)*f + 0.5)
	if out.TotalTasks < 1 {
		out.TotalTasks = 1
	}
	out.Window = pmf.Tick(float64(c.Window)*f + 0.5)
	if out.Window < 1 {
		out.Window = 1
	}
	return out
}

// Trace is a generated arrival sequence, sorted by arrival time.
type Trace struct {
	Tasks []Task
	Cfg   Config
	Seed  int64
}

// Generate builds a trace for the given PET matrix. Every task is
// individually feasible (its slack exceeds its mean execution time on at
// least the average machine, by construction of the deadline rule), while
// the aggregate arrival intensity oversubscribes the system.
func Generate(m *pet.Matrix, cfg Config, seed int64) *Trace {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	rng := stats.NewRNG(seed)
	arrivalRNG := rng.Split()
	typeRNG := rng.Split()
	execRNG := rng.Split()

	nTypes := m.NumTaskTypes()
	nMach := m.NumMachineTypes()
	meanGap := float64(cfg.Window) / float64(cfg.TotalTasks)
	avgAll := m.MeanAll()

	tasks := make([]Task, cfg.TotalTasks)
	var now float64
	for i := range tasks {
		now += arrivalRNG.Exponential(meanGap)
		tt := pet.TaskType(typeRNG.Intn(nTypes))
		arr := pmf.Tick(now)
		slack := pmf.Tick(m.TypeMean(tt) + cfg.GammaSlack*avgAll + 0.5)
		if slack < 1 {
			slack = 1
		}
		exec := make([]pmf.Tick, nMach)
		for j := 0; j < nMach; j++ {
			exec[j] = m.Draw(execRNG, tt, pet.MachineType(j))
		}
		tasks[i] = Task{
			ID:         i,
			Type:       tt,
			Arrival:    arr,
			Deadline:   arr + slack,
			ExecByType: exec,
		}
	}
	// A Poisson process emits non-decreasing times already; sorting is a
	// no-op kept as a safety net for future arrival models.
	sort.SliceStable(tasks, func(i, j int) bool { return tasks[i].Arrival < tasks[j].Arrival })
	for i := range tasks {
		tasks[i].ID = i
	}
	return &Trace{Tasks: tasks, Cfg: cfg, Seed: seed}
}

// ArrivalRate returns the configured arrival intensity in tasks per tick.
func (t *Trace) ArrivalRate() float64 {
	return float64(t.Cfg.TotalTasks) / float64(t.Cfg.Window)
}

// Len returns the number of tasks.
func (t *Trace) Len() int { return len(t.Tasks) }

package sim

import (
	"fmt"
	"io"

	"github.com/hpcclab/taskdrop/internal/pet"
	"github.com/hpcclab/taskdrop/internal/pmf"
)

// TypeBreakdown is the terminal-state mix of one task type.
type TypeBreakdown struct {
	Type  pet.TaskType
	Name  string
	Total int
	Outcomes
}

// RobustnessPct returns the type's on-time percentage.
func (b TypeBreakdown) RobustnessPct() float64 {
	if b.Total == 0 {
		return 0
	}
	return 100 * float64(b.OnTime) / float64(b.Total)
}

// MachineBreakdown is the utilization and throughput of one machine.
type MachineBreakdown struct {
	Machine   int
	Name      string
	Started   int      // tasks that began execution here
	OnTime    int      // of which finished strictly before their deadline
	BusyTicks pmf.Tick // accumulated execution time
	CostUSD   float64  // busy time × hourly price
}

// Recorder keeps the per-task records the engine itself lets go of: one
// TaskState per settled task, as the terminal hook showed it. Tools that
// need more than Result's counts — hcsim -breakdown, the differential test
// suites — subscribe one before feeding; the admission service and
// Scenario trials do not, and hold nothing per settled task.
type Recorder struct {
	e      *Engine
	states []TaskState
}

// Record subscribes a new Recorder to e's terminal hook (SetJournal: it
// takes the place of any hook installed before). Call it before the first
// Feed.
func Record(e *Engine) *Recorder {
	r := &Recorder{e: e}
	e.SetJournal(func(ts *TaskState, _ pmf.Tick) {
		for len(r.states) <= ts.Seq {
			r.states = append(r.states, TaskState{})
		}
		r.states[ts.Seq] = *ts
	})
	return r
}

// TaskStates returns the records in arrival order. After Run or Drain it
// holds every task; before, a task still live is a zero TaskState (nil
// Task). The slice is the recorder's own.
func (r *Recorder) TaskStates() []TaskState { return r.states }

// Breakdown aggregates per-type and per-machine statistics of a finished
// run from the records and the engine's machines. Call after Run.
func (r *Recorder) Breakdown() ([]TypeBreakdown, []MachineBreakdown) {
	e := r.e
	types := make([]TypeBreakdown, e.pet.NumTaskTypes())
	names := e.pet.Profile().TaskTypeNames
	for i := range types {
		types[i] = TypeBreakdown{Type: pet.TaskType(i), Name: names[i]}
	}
	machines := make([]MachineBreakdown, len(e.machines))
	for i, m := range e.machines {
		machines[i] = MachineBreakdown{
			Machine:   i,
			Name:      m.Spec.Name,
			BusyTicks: m.busy,
			CostUSD:   float64(m.busy) / 3.6e6 * m.Spec.PriceHour,
		}
	}
	for i := range r.states {
		ts := &r.states[i]
		tb := &types[ts.Task.Type]
		tb.Total++
		tb.add(ts.Status, 1)
		if ts.Machine >= 0 && ts.Status != StatusDroppedReactive && ts.Status != StatusDroppedProactive {
			mb := &machines[ts.Machine]
			mb.Started++
			if ts.Status == StatusCompletedOnTime {
				mb.OnTime++
			}
		}
	}
	return types, machines
}

// FprintBreakdown renders both breakdowns as aligned text.
func FprintBreakdown(w io.Writer, types []TypeBreakdown, machines []MachineBreakdown) {
	fmt.Fprintln(w, "per task type:")
	fmt.Fprintf(w, "  %-22s %6s %7s %6s %7s %7s %7s %8s\n",
		"type", "total", "ontime", "late", "reactD", "proactD", "failed", "robust%")
	for _, tb := range types {
		fmt.Fprintf(w, "  %-22.22s %6d %7d %6d %7d %7d %7d %8.2f\n",
			tb.Name, tb.Total, tb.OnTime, tb.Late, tb.DroppedReactive,
			tb.DroppedProactive, tb.Failed, tb.RobustnessPct())
	}
	fmt.Fprintln(w, "per machine:")
	fmt.Fprintf(w, "  %-42s %8s %7s %10s %10s\n", "machine", "started", "ontime", "busy(ms)", "cost($)")
	for _, mb := range machines {
		fmt.Fprintf(w, "  %-42.42s %8d %7d %10d %10.5f\n",
			mb.Name, mb.Started, mb.OnTime, mb.BusyTicks, mb.CostUSD)
	}
}

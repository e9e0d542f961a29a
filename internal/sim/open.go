package sim

import (
	"github.com/hpcclab/taskdrop/internal/core"
	"github.com/hpcclab/taskdrop/internal/pet"
	"github.com/hpcclab/taskdrop/internal/pmf"
	"github.com/hpcclab/taskdrop/internal/workload"
)

// NewOpen builds an engine with no trace of its own: arrivals are fed one
// at a time through Feed, and the run ends with Drain. It is the core of
// the online admission service (internal/service) and of the offline
// simulator alike — New(...).Run is nothing but Feed over a trace followed
// by Drain — so for the same (PET matrix, task sequence, configuration)
// online and offline decisions and Results are identical by construction.
func NewOpen(m *pet.Matrix, mapper Mapper, dropper core.Policy, cfg Config) *Engine {
	if m == nil {
		panic("sim: nil PET matrix")
	}
	return newEngineWith(m, m.Machines(), mapper, dropper, cfg)
}

// Feed advances the engine to t.Arrival (processing every completion,
// failure and repair event due before it), injects the task into the
// batch, runs the mapping pipeline, and returns the task's state.
// Inspecting the returned state immediately yields the admission decision:
//
//   - StatusQueued / StatusRunning: mapped to machine state.Machine;
//   - StatusBatch: deferred — every queue slot is full, the task waits
//     unmapped and will be considered again at future events;
//   - StatusDroppedReactive: dropped — its deadline (plus grace) already
//     passed at arrival.
//
// Arrivals must be fed in non-decreasing time order; a task whose Arrival
// lies before the engine clock is treated as arriving now (the clock never
// moves backwards).
func (e *Engine) Feed(t *workload.Task) *TaskState {
	if t == nil {
		panic("sim: Feed(nil)")
	}
	if t.Arrival > e.clock {
		e.AdvanceTo(t.Arrival)
	}
	ts := &TaskState{Task: t, Seq: e.live.Arrived, Status: StatusBatch, Machine: -1}
	e.live.Arrived++
	e.live.Batch++
	e.batch = append(e.batch, ts)
	e.mappingEvent(false)
	return ts
}

// AdvanceTo processes every completion, failure and repair event due up to
// now (see step for the ordering) and moves the clock there.
func (e *Engine) AdvanceTo(now pmf.Tick) {
	for e.step(now) {
	}
	e.advance(now)
}

// Drain runs the remaining events to completion (all queued work executed
// or dropped) and returns the Result. The engine is not reusable
// afterwards.
func (e *Engine) Drain() *Result {
	for e.step(unbounded) {
	}
	return e.finish()
}

// Live is a point-in-time census of every task the engine has seen,
// grouped by lifecycle state — the online service's queue-depth and
// robustness gauges read it between events. The live states count tasks
// the engine still holds; Outcomes counts the ones it has let go of.
type Live struct {
	Arrived int `json:"arrived"`
	Batch   int `json:"batch"`
	Queued  int `json:"queued"`
	Running int `json:"running"`
	Outcomes
}

// add shifts the census bucket of status s by d.
func (l *Live) add(s Status, d int) {
	switch s {
	case StatusBatch:
		l.Batch += d
	case StatusQueued:
		l.Queued += d
	case StatusRunning:
		l.Running += d
	default:
		l.Outcomes.add(s, d)
	}
}

// LiveCounts returns the census of arrived tasks. It is O(1): the engine
// maintains the counts incrementally at every status transition.
func (e *Engine) LiveCounts() Live { return e.live }

// QueueDepths returns the current queue length (including the running
// task) of every machine, indexed by machine.
func (e *Engine) QueueDepths() []int {
	out := make([]int, len(e.machines))
	for i, m := range e.machines {
		out[i] = len(m.queue)
	}
	return out
}

// Machines exposes the machine list (read-only) for callers labelling
// per-machine gauges.
func (e *Engine) Machines() []*Machine { return e.machines }

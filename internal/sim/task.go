// Package sim implements the online batch-mode resource allocation
// simulator of Fig. 1 in the paper: tasks arrive into a batch queue, a
// mapping heuristic assigns them to bounded machine queues, a task dropper
// removes doomed tasks, and machines execute assigned tasks first come
// first served with realized execution times drawn from the ground-truth
// laws behind the PET matrix.
//
// The engine is deterministic given (PET matrix, trace): all randomness is
// pre-drawn into the trace, so different mappers and droppers are compared
// on identical workloads (paired experiments).
package sim

import (
	"fmt"

	"github.com/hpcclab/taskdrop/internal/pmf"
	"github.com/hpcclab/taskdrop/internal/workload"
)

// Status is the lifecycle state of a task inside the simulator.
type Status uint8

// Task lifecycle states. The terminal states are CompletedOnTime,
// CompletedLate, DroppedReactive and DroppedProactive.
const (
	// StatusBatch: arrived, waiting unmapped in the batch queue.
	StatusBatch Status = iota
	// StatusQueued: assigned to a machine queue, not yet executing.
	StatusQueued
	// StatusRunning: executing on a machine.
	StatusRunning
	// StatusCompletedOnTime: finished strictly before its deadline.
	StatusCompletedOnTime
	// StatusCompletedLate: started before its deadline but finished at or
	// after it (Eq. 1 only drops tasks that cannot *begin* on time).
	StatusCompletedLate
	// StatusDroppedReactive: dropped after the fact — its deadline passed
	// while it waited (in the batch or a machine queue).
	StatusDroppedReactive
	// StatusDroppedProactive: dropped ahead of its deadline by the
	// proactive dropping policy.
	StatusDroppedProactive
	// StatusFailed: killed mid-execution by an injected machine failure
	// (only with Config.Failures enabled).
	StatusFailed
)

// Terminal reports whether the status is an end state.
func (s Status) Terminal() bool { return s >= StatusCompletedOnTime }

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusBatch:
		return "batch"
	case StatusQueued:
		return "queued"
	case StatusRunning:
		return "running"
	case StatusCompletedOnTime:
		return "completed-on-time"
	case StatusCompletedLate:
		return "completed-late"
	case StatusDroppedReactive:
		return "dropped-reactive"
	case StatusDroppedProactive:
		return "dropped-proactive"
	case StatusFailed:
		return "failed"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// TaskState is the simulator's mutable record of one task. The engine
// owns it: Feed copies the task in, the engine holds the state while the
// task is live (in the batch or on a machine queue) and reuses its storage
// for a later arrival once the task has turned terminal and the terminal
// hook has run. A *TaskState the engine hands out is valid until the next
// call into the engine; whoever keeps one longer keeps a copy (Recorder).
type TaskState struct {
	// Task is the engine's copy of the task as fed. Its ExecByType is
	// engine-owned storage, reused with the state.
	Task workload.Task
	// Seq is the task's arrival ordinal in its engine: 0 for the first
	// task fed, counting every arrival since.
	Seq     int
	Status  Status
	Machine int      // machine index once assigned, −1 before
	Start   pmf.Tick // execution start time (valid once running)
	Finish  pmf.Tick // completion time (valid once completed)
}

// Deadline is a convenience accessor for the task's hard deadline.
func (t *TaskState) Deadline() pmf.Tick { return t.Task.Deadline }

package sim

import (
	"fmt"

	"github.com/hpcclab/taskdrop/internal/core"
	"github.com/hpcclab/taskdrop/internal/pet"
	"github.com/hpcclab/taskdrop/internal/pmf"
	"github.com/hpcclab/taskdrop/internal/workload"
)

// EngineSnapshot is the complete serializable state of an engine between
// events: every task the engine has seen, the machine queues (as
// task indexes), the clock, and the failure-process cursors. An engine
// restored from a snapshot produces exactly the same decisions as the
// original for any subsequent Feed sequence — the admission service's
// journal checkpoints are JSON encodings of this struct.
type EngineSnapshot struct {
	Clock    pmf.Tick          `json:"clock"`
	Tasks    []TaskSnapshot    `json:"tasks"`
	Machines []MachineSnapshot `json:"machines"`
	// Batch lists the unmapped batch queue as indexes into Tasks, in order.
	Batch []int `json:"batch,omitempty"`
	// Failures holds one cursor per machine when failure injection is on.
	Failures []FailureSnapshot `json:"failures,omitempty"`
	// Added lists the machine types of runtime-added machines (AddMachine)
	// in order of addition; Removed lists the machine indexes currently out
	// of the live set. Both are omitted on an engine whose membership never
	// changed, keeping pre-churn snapshots byte-identical.
	Added   []int `json:"added,omitempty"`
	Removed []int `json:"removed,omitempty"`
}

// TaskSnapshot is one task's full record: the immutable arrival data and
// the mutable lifecycle state.
type TaskSnapshot struct {
	ID       int        `json:"id"`
	Type     int        `json:"type"`
	Arrival  pmf.Tick   `json:"arrival"`
	Deadline pmf.Tick   `json:"deadline"`
	Exec     []pmf.Tick `json:"exec"`
	Status   Status     `json:"status"`
	Machine  int        `json:"machine"`
	Start    pmf.Tick   `json:"start"`
	Finish   pmf.Tick   `json:"finish"`
}

// MachineSnapshot is one machine's queue and execution state. Queue holds
// indexes into EngineSnapshot.Tasks, head first.
type MachineSnapshot struct {
	Queue      []int    `json:"queue,omitempty"`
	Running    bool     `json:"running"`
	CompleteAt pmf.Tick `json:"complete_at"`
	Busy       pmf.Tick `json:"busy"`
}

// FailureSnapshot is one machine's failure-process cursor. Draws counts
// the exponential samples consumed from the machine's seeded stream;
// restore replays the stream to that point (the engine cannot serialize
// math/rand state directly).
type FailureSnapshot struct {
	Draws      int64    `json:"draws"`
	NextFailAt pmf.Tick `json:"next_fail_at"`
	RepairAt   pmf.Tick `json:"repair_at"`
}

// Snapshot captures the engine's state between events.
func (e *Engine) Snapshot() *EngineSnapshot {
	idx := make(map[*TaskState]int, len(e.tasks))
	for i, ts := range e.tasks {
		idx[ts] = i
	}
	s := &EngineSnapshot{
		Clock:    e.clock,
		Tasks:    make([]TaskSnapshot, len(e.tasks)),
		Machines: make([]MachineSnapshot, len(e.machines)),
	}
	for i, ts := range e.tasks {
		s.Tasks[i] = TaskSnapshot{
			ID:       ts.Task.ID,
			Type:     int(ts.Task.Type),
			Arrival:  ts.Task.Arrival,
			Deadline: ts.Task.Deadline,
			Exec:     append([]pmf.Tick(nil), ts.Task.ExecByType...),
			Status:   ts.Status,
			Machine:  ts.Machine,
			Start:    ts.Start,
			Finish:   ts.Finish,
		}
	}
	for i, m := range e.machines {
		ms := MachineSnapshot{Running: m.running, CompleteAt: m.completeAt, Busy: m.busy}
		for _, ts := range m.queue {
			ms.Queue = append(ms.Queue, idx[ts])
		}
		s.Machines[i] = ms
	}
	for _, ts := range e.batch {
		s.Batch = append(s.Batch, idx[ts])
	}
	for i := range e.failures {
		fs := &e.failures[i]
		s.Failures = append(s.Failures, FailureSnapshot{
			Draws: fs.draws, NextFailAt: fs.nextFailAt, RepairAt: fs.repairAt,
		})
	}
	s.Added = append([]int(nil), e.addedTypes...)
	s.Removed = e.RemovedMachines()
	return s
}

// RestoreSnapshot loads s into e, which must be a freshly built engine
// (NewOpen / NewOpenShard with the same PET matrix, machine set and
// configuration as the snapshotted one) that has not been fed. After a
// successful restore the engine is indistinguishable from the original:
// same clock, queues, batch, task history and failure cursors.
func (e *Engine) RestoreSnapshot(s *EngineSnapshot) error {
	if len(e.tasks) != 0 || e.clock != 0 {
		return fmt.Errorf("sim: RestoreSnapshot on a non-fresh engine (%d tasks, clock %d)", len(e.tasks), e.clock)
	}
	// Re-attach runtime-added machines before any count check: the fresh
	// engine was built over the original machine set, the snapshot covers
	// the grown one.
	for _, mt := range s.Added {
		if _, err := e.attachMachine(pet.MachineType(mt)); err != nil {
			return err
		}
	}
	if len(s.Machines) != len(e.machines) {
		return fmt.Errorf("sim: snapshot has %d machines, engine has %d", len(s.Machines), len(e.machines))
	}
	if got, want := len(e.failures) > 0, len(s.Failures) > 0; got != want {
		return fmt.Errorf("sim: snapshot and engine disagree on failure injection (snapshot %v, engine %v)", want, got)
	}
	if len(s.Failures) > 0 && len(s.Failures) != len(e.machines) {
		return fmt.Errorf("sim: snapshot has %d failure cursors for %d machines", len(s.Failures), len(e.machines))
	}

	tasks := make([]*TaskState, len(s.Tasks))
	for i, t := range s.Tasks {
		tasks[i] = &TaskState{
			Task: &workload.Task{
				ID:         t.ID,
				Type:       pet.TaskType(t.Type),
				Arrival:    t.Arrival,
				Deadline:   t.Deadline,
				ExecByType: append([]pmf.Tick(nil), t.Exec...),
			},
			Status:  t.Status,
			Machine: t.Machine,
			Start:   t.Start,
			Finish:  t.Finish,
		}
	}
	taskAt := func(i int) (*TaskState, error) {
		if i < 0 || i >= len(tasks) {
			return nil, fmt.Errorf("sim: snapshot references task %d of %d", i, len(tasks))
		}
		return tasks[i], nil
	}

	for i, ms := range s.Machines {
		m := e.machines[i]
		m.queue = m.queue[:0]
		for _, ti := range ms.Queue {
			ts, err := taskAt(ti)
			if err != nil {
				return err
			}
			m.queue = append(m.queue, ts)
		}
		if ms.Running && len(m.queue) == 0 {
			return fmt.Errorf("sim: snapshot machine %d running with empty queue", i)
		}
		m.running = ms.Running
		m.completeAt = ms.CompleteAt
		m.busy = ms.Busy
		m.version++
		m.tailValid = false
		// Hygiene, not correctness: the signature check would catch any
		// drift lazily, but a restored engine should not start life
		// trusting chains cached for a different queue history.
		m.cache.Invalidate(core.InvalidateChurn)
	}

	e.batch = e.batch[:0]
	for _, ti := range s.Batch {
		ts, err := taskAt(ti)
		if err != nil {
			return err
		}
		e.batch = append(e.batch, ts)
	}

	for i, fc := range s.Failures {
		if fc.Draws < 1 {
			return fmt.Errorf("sim: snapshot failure cursor %d with %d draws", i, fc.Draws)
		}
		fs := &e.failures[i]
		// Construction already consumed the stream's first sample; discard
		// up to the snapshot's count, then overwrite the schedule.
		for ; fs.draws < fc.Draws; fs.draws++ {
			fs.rng.Exponential(1)
		}
		fs.nextFailAt = fc.NextFailAt
		fs.repairAt = fc.RepairAt
	}

	for _, ri := range s.Removed {
		if ri < 0 || ri >= len(e.machines) {
			return fmt.Errorf("sim: snapshot removes machine %d of %d", ri, len(e.machines))
		}
		if e.removed == nil {
			e.removed = make([]bool, len(e.machines))
		}
		if e.removed[ri] {
			return fmt.Errorf("sim: snapshot removes machine %d twice", ri)
		}
		e.removed[ri] = true
		e.totalSlots -= e.cfg.QueueCap
	}

	e.tasks = tasks
	e.clock = s.Clock
	e.live = e.recountLive()
	return nil
}

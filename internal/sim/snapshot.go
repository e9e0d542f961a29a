package sim

import (
	"encoding/json"
	"fmt"

	"github.com/hpcclab/taskdrop/internal/core"
	"github.com/hpcclab/taskdrop/internal/pet"
	"github.com/hpcclab/taskdrop/internal/pmf"
	"github.com/hpcclab/taskdrop/internal/workload"
)

// snapshotVersion is the EngineSnapshot format this build writes and
// reads. Version 2 holds live tasks and the tally; its predecessor
// (unversioned, so it reads as 0) held every task the engine had ever been
// fed, under some of the same keys.
const snapshotVersion = 2

// EngineSnapshot is the complete serializable state of an engine between
// events: the tasks it holds — batch and machine queues — the census and
// tally of the ones it has settled, the clock, and the failure-process
// cursors. Its size follows what is queued, not what was ever admitted. An
// engine restored from a snapshot produces exactly the same decisions, and
// drains to the same Result, as the original for any subsequent Feed
// sequence — the admission service's journal checkpoints are JSON encodings
// of this struct.
type EngineSnapshot struct {
	Version int      `json:"version"`
	Clock   pmf.Tick `json:"clock"`
	Live    Live     `json:"live"`
	Tally   Tally    `json:"tally"`
	// Batch is the unmapped batch queue, in order.
	Batch    []TaskSnapshot    `json:"batch,omitempty"`
	Machines []MachineSnapshot `json:"machines"`
	// Failures holds one cursor per machine when failure injection is on.
	Failures []FailureSnapshot `json:"failures,omitempty"`
	// Added lists the machine types of runtime-added machines (AddMachine)
	// in order of addition; Removed lists the machine indexes currently out
	// of the live set. Both are omitted on an engine whose membership never
	// changed.
	Added   []int `json:"added,omitempty"`
	Removed []int `json:"removed,omitempty"`
}

// UnmarshalJSON decodes a snapshot of this build's format and refuses any
// other by version, before a field of it is interpreted.
func (s *EngineSnapshot) UnmarshalJSON(b []byte) error {
	var v struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	if v.Version != snapshotVersion {
		return fmt.Errorf("sim: engine snapshot is format version %d, this build reads version %d only", v.Version, snapshotVersion)
	}
	type fields EngineSnapshot // the same fields without this method
	return json.Unmarshal(b, (*fields)(s))
}

// TaskSnapshot is one live task: the immutable arrival data, its arrival
// ordinal, and when it started if it is running. Where it sits in the
// snapshot says the rest (batch, or which machine's queue).
type TaskSnapshot struct {
	ID       int        `json:"id"`
	Seq      int        `json:"seq"`
	Type     int        `json:"type"`
	Arrival  pmf.Tick   `json:"arrival"`
	Deadline pmf.Tick   `json:"deadline"`
	Exec     []pmf.Tick `json:"exec"`
	Start    pmf.Tick   `json:"start,omitempty"`
}

// MachineSnapshot is one machine's queue (head first) and execution state.
type MachineSnapshot struct {
	Queue      []TaskSnapshot `json:"queue,omitempty"`
	Running    bool           `json:"running"`
	CompleteAt pmf.Tick       `json:"complete_at"`
	Busy       pmf.Tick       `json:"busy"`
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

// snapshotTasks serializes one queue of live tasks.
func snapshotTasks(q []*TaskState) []TaskSnapshot {
	var out []TaskSnapshot
	for _, ts := range q {
		out = append(out, TaskSnapshot{
			ID:       ts.Task.ID,
			Seq:      ts.Seq,
			Type:     int(ts.Task.Type),
			Arrival:  ts.Task.Arrival,
			Deadline: ts.Task.Deadline,
			Exec:     append([]pmf.Tick(nil), ts.Task.ExecByType...),
			Start:    ts.Start,
		})
	}
	return out
}

// restoreTasks is snapshotTasks' inverse for a queue of machine (−1: the
// batch) whose head is running when headRunning.
func restoreTasks(q []TaskSnapshot, machine int, headRunning bool) []*TaskState {
	var out []*TaskState
	for i, t := range q {
		ts := &TaskState{
			Task: &workload.Task{
				ID:         t.ID,
				Type:       pet.TaskType(t.Type),
				Arrival:    t.Arrival,
				Deadline:   t.Deadline,
				ExecByType: append([]pmf.Tick(nil), t.Exec...),
			},
			Seq:     t.Seq,
			Status:  StatusQueued,
			Machine: machine,
			Start:   t.Start,
		}
		switch {
		case machine < 0:
			ts.Status = StatusBatch
		case i == 0 && headRunning:
			ts.Status = StatusRunning
		}
		out = append(out, ts)
	}
	return out
}

// Snapshot captures the engine's state between events.
func (e *Engine) Snapshot() *EngineSnapshot {
	s := &EngineSnapshot{
		Version:  snapshotVersion,
		Clock:    e.clock,
		Live:     e.live,
		Tally:    e.tally,
		Batch:    snapshotTasks(e.batch),
		Machines: make([]MachineSnapshot, len(e.machines)),
	}
	s.Tally.Tail = append([]Settled(nil), e.tally.Tail...)
	for i, m := range e.machines {
		s.Machines[i] = MachineSnapshot{
			Queue: snapshotTasks(m.queue), Running: m.running, CompleteAt: m.completeAt, Busy: m.busy,
		}
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
// same clock, queues, batch, census, tally and failure cursors.
func (e *Engine) RestoreSnapshot(s *EngineSnapshot) error {
	if e.live.Arrived != 0 || e.clock != 0 {
		return fmt.Errorf("sim: RestoreSnapshot on a non-fresh engine (%d tasks, clock %d)", e.live.Arrived, e.clock)
	}
	if len(s.Tally.Tail) != e.cfg.BoundaryExclusion {
		return fmt.Errorf("sim: snapshot tallies a boundary of %d tasks, engine excludes %d", len(s.Tally.Tail), e.cfg.BoundaryExclusion)
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

	held := Live{Arrived: s.Live.Arrived, Batch: len(s.Batch), Outcomes: s.Live.Outcomes}
	for i, ms := range s.Machines {
		m := e.machines[i]
		if ms.Running && len(ms.Queue) == 0 {
			return fmt.Errorf("sim: snapshot machine %d running with empty queue", i)
		}
		m.queue = append(m.queue[:0], restoreTasks(ms.Queue, i, ms.Running)...)
		m.running = ms.Running
		m.completeAt = ms.CompleteAt
		m.busy = ms.Busy
		m.version++
		m.tailValid = false
		// Hygiene, not correctness: the signature check would catch any
		// drift lazily, but a restored engine should not start life
		// trusting chains cached for a different queue history.
		m.cache.Invalidate(core.InvalidateChurn)
		held.Queued += len(ms.Queue)
		if ms.Running {
			held.Queued--
			held.Running++
		}
	}
	e.batch = append(e.batch[:0], restoreTasks(s.Batch, -1, false)...)
	if held != s.Live || held.Batch+held.Queued+held.Running+held.total() != held.Arrived {
		return fmt.Errorf("sim: snapshot census %+v does not count the tasks it holds (%d batch, %d queued, %d running)",
			s.Live, held.Batch, held.Queued, held.Running)
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
		if e.machines[ri].removed {
			return fmt.Errorf("sim: snapshot removes machine %d twice", ri)
		}
		e.machines[ri].removed = true
		e.totalSlots -= e.cfg.QueueCap
	}

	e.clock = s.Clock
	e.live = s.Live
	e.tally = s.Tally
	e.tally.Tail = append([]Settled(nil), s.Tally.Tail...)
	return nil
}

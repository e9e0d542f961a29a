package sim

import (
	"fmt"

	"github.com/hpcclab/taskdrop/internal/core"
	"github.com/hpcclab/taskdrop/internal/pet"
	"github.com/hpcclab/taskdrop/internal/pmf"
)

// MappingEvent is the window a Mapper gets onto the system at one mapping
// event. It exposes the unmapped batch, the machines, and the
// completion-time calculus needed to evaluate candidate assignments, plus
// the Assign commit operation.
type MappingEvent struct {
	e *Engine
}

// Now returns the event time.
func (ev *MappingEvent) Now() pmf.Tick { return ev.e.clock }

// PET returns the system's PET matrix.
func (ev *MappingEvent) PET() *pet.Matrix { return ev.e.pet }

// Batch returns the unmapped tasks in arrival order. The slice is shared:
// mappers must not modify it directly (Assign maintains it).
func (ev *MappingEvent) Batch() []*TaskState { return ev.e.batch }

// Machines returns all machines. The slice is shared and read-only.
func (ev *MappingEvent) Machines() []*Machine { return ev.e.machines }

// FreeSlots returns the number of open queue slots on machine m. A failed
// machine advertises no free slots until repaired; a removed machine
// advertises none until revived.
func (ev *MappingEvent) FreeSlots(m *Machine) int {
	if ev.e.failed(m.Spec.Index) || ev.e.removedAt(m.Spec.Index) {
		return 0
	}
	return ev.e.cfg.QueueCap - len(m.queue)
}

// CandidateCompletion returns the completion-time PMF task ts would have
// if appended to machine m's queue now (Eq. 1 chained onto the queue's
// tail completion). The tail chain state is cached per machine per event
// and candidates branch off it through the calculus' chain cache, so
// re-scanning the same (task, machine) pair across the commit rounds of a
// batch heuristic costs a lookup, not a convolution. The returned PMF
// aliases the calculus arena (valid within the current mapping event).
func (ev *MappingEvent) CandidateCompletion(ts *TaskState, m *Machine) pmf.PMF {
	ev.e.calc.CountCandidate()
	tail := m.tailChain(ev.e.calc, ev.e.clock)
	return tail.Append(ts.Task.Type, ts.Task.Deadline).PMF()
}

// CandidateMeanLowerBound returns a lower bound on
// CandidateCompletion(ts, m).Mean() — the candidate's expected completion
// time — at the cost of one pass over the machine's (memoized) tail PMF:
// no convolution, no trie edge. -Inf when the calculus can give none. A mapper scanning
// for a minimum ECT skips a candidate whose bound already reaches its
// incumbent and reports the skip through Pruned.
func (ev *MappingEvent) CandidateMeanLowerBound(ts *TaskState, m *Machine) float64 {
	return m.tailChain(ev.e.calc, ev.e.clock).MeanLowerBound(ts.Task.Type, ts.Task.Deadline)
}

// Pruned records n candidates the mapper ruled out without evaluating
// them (the "pruned" side of taskdrop_mapper_candidates_total).
func (ev *MappingEvent) Pruned(n int) { ev.e.calc.CountPruned(n) }

// SuccessProbability returns the chance of success (Eq. 2) task ts would
// have if appended to machine m now.
func (ev *MappingEvent) SuccessProbability(ts *TaskState, m *Machine) float64 {
	return ev.CandidateCompletion(ts, m).MassBefore(ts.Task.Deadline)
}

// ExpectedExec returns the mean execution time (ms) of ts on machine m
// according to the PET.
func (ev *MappingEvent) ExpectedExec(ts *TaskState, m *Machine) float64 {
	return ev.e.pet.CellMean(ts.Task.Type, m.Type())
}

// Assign commits task ts (which must be in the batch) to machine m (which
// must have a free slot). The task joins the queue tail.
func (ev *MappingEvent) Assign(ts *TaskState, m *Machine) {
	if ts.Status != StatusBatch {
		panic(fmt.Sprintf("sim: mapper %q assigned task %d with status %v", ev.e.mapper.Name(), ts.Task.ID, ts.Status))
	}
	if ev.FreeSlots(m) <= 0 {
		panic(fmt.Sprintf("sim: mapper %q overfilled machine %d", ev.e.mapper.Name(), m.Spec.Index))
	}
	removed := false
	for i, b := range ev.e.batch {
		if b == ts {
			ev.e.batch = append(ev.e.batch[:i], ev.e.batch[i+1:]...)
			removed = true
			break
		}
	}
	if !removed {
		panic(fmt.Sprintf("sim: mapper %q assigned task %d not present in batch", ev.e.mapper.Name(), ts.Task.ID))
	}
	ev.e.transition(ts, StatusQueued)
	ts.Machine = m.Spec.Index
	m.push(ts)
}

// Calculus exposes the engine's completion-time calculus for mappers that
// need custom probability computations.
func (ev *MappingEvent) Calculus() *core.Calculus { return ev.e.calc }

package sim

import (
	"fmt"

	"github.com/hpcclab/taskdrop/internal/core"
	"github.com/hpcclab/taskdrop/internal/pet"
	"github.com/hpcclab/taskdrop/internal/pmf"
	"github.com/hpcclab/taskdrop/internal/stats"
)

// Dynamic membership: an engine's machine set can change between
// events. RemoveMachine takes a machine out of the live set (killing its
// running task and either handing its pending queue back to the batch or
// force-dropping it), ReviveMachine brings it back, and AddMachine grows
// the set with a new machine of an existing type. Each operation executes
// at the engine's current clock and runs the full mapping pipeline, so the
// decision stream stays deterministic: replaying the same arrivals and the
// same membership operations at the same points reproduces the same
// decisions. A never-churned engine carries no membership state at all —
// its snapshots and decisions are byte-identical to the pre-membership
// engine.

// MemberKind is one kind of membership change. The values are the codes a
// journal membership record carries (journal.MemberAdd, ...).
type MemberKind uint8

// The three membership operations.
const (
	// MemberAdd grows the live set with a machine of an existing type.
	MemberAdd MemberKind = iota
	// MemberRemove takes a machine out of the live set.
	MemberRemove
	// MemberRevive returns a removed machine to the live set.
	MemberRevive
)

var memberKindNames = [...]string{"add", "remove", "revive"}

// String names the operation as the admin endpoint, churn plans, metric
// labels and logs spell it.
func (k MemberKind) String() string {
	if int(k) < len(memberKindNames) {
		return memberKindNames[k]
	}
	return fmt.Sprintf("MemberKind(%d)", uint8(k))
}

// ParseMemberKind is String's inverse.
func ParseMemberKind(s string) (MemberKind, bool) {
	for k, name := range memberKindNames {
		if s == name {
			return MemberKind(k), true
		}
	}
	return 0, false
}

// MemberOp is one membership operation on an engine: add a machine of
// Type, remove machine Machine (handing its pending queue back to the batch
// when Handoff, force-dropping it otherwise), or revive it.
type MemberOp struct {
	Kind    MemberKind
	Machine int
	Type    pet.MachineType
	Handoff bool
}

// ApplyMember applies one membership operation at the current clock and
// returns the index of the machine it touched (for an add, the one the new
// machine was given). It is the one place an operation kind selects an
// engine method: the offline cluster driver and the admission service's
// shards both change membership through it.
func (e *Engine) ApplyMember(op MemberOp) (int, error) {
	switch op.Kind {
	case MemberAdd:
		return e.AddMachine(op.Type)
	case MemberRemove:
		return op.Machine, e.RemoveMachine(op.Machine, op.Handoff)
	case MemberRevive:
		return op.Machine, e.ReviveMachine(op.Machine)
	}
	return -1, fmt.Errorf("sim: membership op %v", op.Kind)
}

// removedAt reports whether machine i is currently out of the live set.
func (e *Engine) removedAt(i int) bool { return e.machines[i].removed }

// LiveMachines returns the number of machines currently in the live set.
// A failed-but-repairing machine still counts as live; only RemoveMachine
// shrinks this.
func (e *Engine) LiveMachines() int {
	n := 0
	for _, m := range e.machines {
		if !m.removed {
			n++
		}
	}
	return n
}

// RemovedMachines returns the indexes of removed machines, ascending
// (nil when none is).
func (e *Engine) RemovedMachines() []int {
	var out []int
	for i, m := range e.machines {
		if m.removed {
			out = append(out, i)
		}
	}
	return out
}

// RemoveMachine takes machine i out of the live set at the current clock.
// Its running task dies (StatusFailed, like a machine failure); pending
// queue entries are handed back to the batch for remapping when handoff is
// true, or force-dropped as failed otherwise. The machine's chain-state
// cache is invalidated and the mapping pipeline runs so handed-off tasks
// are reconsidered immediately.
func (e *Engine) RemoveMachine(i int, handoff bool) error {
	if i < 0 || i >= len(e.machines) {
		return fmt.Errorf("sim: RemoveMachine(%d) of %d machines", i, len(e.machines))
	}
	if e.removedAt(i) {
		return fmt.Errorf("sim: machine %d already removed", i)
	}
	e.detachMachine(i, handoff)
	e.mappingEvent(true)
	return nil
}

// detachMachine is RemoveMachine without the mapping pipeline.
func (e *Engine) detachMachine(i int, handoff bool) {
	m := e.machines[i]
	e.killRunning(m)
	for len(m.queue) > 0 {
		ts := m.removeAt(0)
		if handoff {
			e.transition(ts, StatusBatch)
			ts.Machine = -1
			e.batch = append(e.batch, ts)
		} else {
			ts.Finish = e.clock
			e.transition(ts, StatusFailed)
		}
	}
	m.tailValid = false
	m.cache.Invalidate(core.InvalidateChurn)
	m.removed = true
	e.totalSlots -= e.cfg.QueueCap
}

// ReviveMachine returns removed machine i to the live set at the current
// clock with an empty queue. If failure injection is on, any failure
// schedule that came due while the machine was out is stale (it would move
// the clock backwards); the process is re-armed from now.
func (e *Engine) ReviveMachine(i int) error {
	if i < 0 || i >= len(e.machines) {
		return fmt.Errorf("sim: ReviveMachine(%d) of %d machines", i, len(e.machines))
	}
	if !e.removedAt(i) {
		return fmt.Errorf("sim: machine %d is not removed", i)
	}
	e.machines[i].removed = false
	e.totalSlots += e.cfg.QueueCap
	e.machines[i].cache.Invalidate(core.InvalidateChurn)
	e.machines[i].tailValid = false
	if e.failures != nil {
		fs := &e.failures[i]
		if fs.repairAt != noCompletion || (fs.nextFailAt != noCompletion && fs.nextFailAt <= e.clock) {
			fs.repairAt = noCompletion
			fs.nextFailAt = e.clock + 1 + pmf.Tick(fs.rng.Exponential(float64(e.cfg.Failures.MTBF)))
			fs.draws++
		}
	}
	e.mappingEvent(true)
	return nil
}

// AddMachine grows the live set with a new machine of type mt at the
// current clock and returns its index. Pricing is cloned from an existing
// machine of the same type (a type with no reference machine cannot be
// added). The new machine starts idle with an empty queue; the mapping
// pipeline runs so deferred batch tasks can claim its slots immediately.
func (e *Engine) AddMachine(mt pet.MachineType) (int, error) {
	i, err := e.attachMachine(mt)
	if err != nil {
		return -1, err
	}
	e.mappingEvent(true)
	return i, nil
}

// attachMachine is AddMachine without the mapping pipeline.
func (e *Engine) attachMachine(mt pet.MachineType) (int, error) {
	if int(mt) < 0 || int(mt) >= e.pet.NumMachineTypes() {
		return -1, fmt.Errorf("sim: AddMachine with machine type %d of %d", mt, e.pet.NumMachineTypes())
	}
	price := -1.0
	for _, m := range e.machines {
		if m.Spec.Type == mt {
			price = m.Spec.PriceHour
			break
		}
	}
	if price < 0 {
		for _, s := range e.pet.Machines() {
			if s.Type == mt {
				price = s.PriceHour
				break
			}
		}
	}
	if price < 0 {
		return -1, fmt.Errorf("sim: no machine of type %d to derive pricing from", mt)
	}
	i := len(e.machines)
	spec := pet.MachineSpec{
		Index:     i,
		Type:      mt,
		Name:      fmt.Sprintf("added-%d#%d", mt, len(e.addedTypes)),
		PriceHour: price,
	}
	e.machines = append(e.machines, &Machine{Spec: spec, completeAt: noCompletion, cache: e.calc.NewChainCache()})
	if e.failures != nil {
		e.failures = append(e.failures, e.newFailureCursor(i))
	}
	e.addedTypes = append(e.addedTypes, int(mt))
	e.totalSlots += e.cfg.QueueCap
	return i, nil
}

// newFailureCursor seeds the failure process of a runtime-added machine.
// The stream is derived from (failure seed, machine index) alone, so a
// restored engine that re-attaches the same machines re-creates the
// identical process before replaying its draw count.
func (e *Engine) newFailureCursor(i int) machineFailureState {
	rng := stats.NewRNG(e.cfg.Failures.Seed + 0x5DEECE66D*int64(i+1))
	return machineFailureState{
		rng:        rng,
		nextFailAt: e.clock + 1 + pmf.Tick(rng.Exponential(float64(e.cfg.Failures.MTBF))),
		repairAt:   noCompletion,
		draws:      1,
	}
}

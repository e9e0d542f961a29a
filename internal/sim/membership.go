package sim

import (
	"fmt"

	"github.com/hpcclab/taskdrop/internal/core"
	"github.com/hpcclab/taskdrop/internal/pet"
	"github.com/hpcclab/taskdrop/internal/pmf"
	"github.com/hpcclab/taskdrop/internal/stats"
)

// Dynamic membership: an engine's machine set can change between
// events. A remove takes a machine out of the live set (killing its
// running task and either handing its pending queue back to the batch or
// force-dropping it), a revive brings it back, and an add grows the set
// with a new machine of an existing type. Each operation executes
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

// ApplyMember applies one membership operation at the current clock, the
// one entry point for the offline cluster driver and the service's shards
// alike. A refused operation changes nothing; accepted (when non-nil) runs
// once op has passed the checks and before any effect — where the service
// logs op, ahead of what it causes. Then the mapping pipeline runs, so
// handed-off tasks are reconsidered and deferred batch tasks can claim a
// revived or added machine's slots at once.
//
//   - MemberRemove: the machine's running task dies (StatusFailed, like a
//     machine failure); its pending queue is handed back to the batch when
//     op.Handoff, force-dropped as failed otherwise.
//   - MemberRevive: the machine returns with an empty queue. Under failure
//     injection, a failure schedule that came due while it was out is
//     stale (it would move the clock backwards), so the process is
//     re-armed from now.
//   - MemberAdd: a machine of op.Type joins at index len(Machines()), idle,
//     priced like every machine of its type.
func (e *Engine) ApplyMember(op MemberOp, accepted func()) error {
	price, err := e.checkMember(op)
	if err != nil {
		return err
	}
	if accepted != nil {
		accepted()
	}
	switch op.Kind {
	case MemberAdd:
		e.attachMachine(op.Type, price)
	case MemberRemove:
		e.detachMachine(op.Machine, op.Handoff)
	default:
		m := e.machines[op.Machine]
		m.removed = false
		e.totalSlots += e.cfg.QueueCap
		m.cache.Invalidate(core.InvalidateChurn)
		m.tailValid = false
		if e.failures != nil {
			fs := &e.failures[op.Machine]
			if fs.repairAt != noCompletion || (fs.nextFailAt != noCompletion && fs.nextFailAt <= e.clock) {
				fs.repairAt = noCompletion
				fs.nextFailAt = e.clock + 1 + pmf.Tick(fs.rng.Exponential(float64(e.cfg.Failures.MTBF)))
				fs.draws++
			}
		}
	}
	e.mappingEvent(true)
	return nil
}

// checkMember is why the engine refuses op, or nil: the checks of all three
// operations, written once. An add's check is its machine's price.
func (e *Engine) checkMember(op MemberOp) (price float64, err error) {
	i := op.Machine
	switch {
	case op.Kind == MemberAdd:
		return e.priceOf(op.Type)
	case op.Kind > MemberRevive:
		return 0, fmt.Errorf("sim: membership op %v", op.Kind)
	case i < 0 || i >= len(e.machines):
		return 0, fmt.Errorf("sim: %v of machine %d of %d", op.Kind, i, len(e.machines))
	case op.Kind == MemberRemove && e.removedAt(i):
		return 0, fmt.Errorf("sim: machine %d already removed", i)
	case op.Kind == MemberRevive && !e.removedAt(i):
		return 0, fmt.Errorf("sim: machine %d is not removed", i)
	}
	return 0, nil
}

// removedAt reports whether machine i is currently out of the live set.
func (e *Engine) removedAt(i int) bool { return e.machines[i].removed }

// LiveMachines returns the number of machines currently in the live set.
// A failed-but-repairing machine still counts as live; only a remove
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

// detachMachine is a remove's effect on machine i, without the mapping
// pipeline.
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

// attachMachine appends a machine of type mt at the given hourly price:
// an add's effect without the mapping pipeline, and how RestoreSnapshot
// re-attaches the machines a snapshot's engine added.
func (e *Engine) attachMachine(mt pet.MachineType, price float64) {
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
}

// priceOf is the hourly price of an added machine of type mt: the one every
// machine of that type has. A type no machine has cannot be added.
func (e *Engine) priceOf(mt pet.MachineType) (float64, error) {
	for _, s := range e.pet.Machines() {
		if s.Type == mt {
			return s.PriceHour, nil
		}
	}
	return 0, fmt.Errorf("sim: no machine of type %d to derive pricing from", mt)
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

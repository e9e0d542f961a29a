package sim

import (
	"github.com/hpcclab/taskdrop/internal/pmf"
	"github.com/hpcclab/taskdrop/internal/stats"
)

// FailureConfig enables machine failure injection — the "resource failure"
// compound uncertainty the paper names as future work (§VI). Failures
// strike each machine as a Poisson process; a failed machine kills its
// running task (terminal state StatusFailed), holds its pending queue, and
// accepts no new work until repaired.
type FailureConfig struct {
	// MTBF is the mean time between failures per machine, in ticks;
	// 0 disables failure injection.
	MTBF pmf.Tick
	// MeanRepair is the mean repair duration, in ticks (exponential).
	MeanRepair pmf.Tick
	// Seed drives the failure process; trials with equal seeds see equal
	// failure schedules.
	Seed int64
}

// Enabled reports whether failure injection is active.
func (f FailureConfig) Enabled() bool { return f.MTBF > 0 }

// machineFailureState tracks one machine's failure process.
type machineFailureState struct {
	rng *stats.RNG
	// nextFailAt is the next scheduled failure (noCompletion = none).
	nextFailAt pmf.Tick
	// repairAt is when the current outage ends (noCompletion = healthy).
	repairAt pmf.Tick
	// draws counts exponential samples consumed from rng. math/rand state
	// cannot be serialized, so a snapshot stores this count instead and
	// restore re-seeds the stream and discards draws-1 samples (the
	// sample count ExpFloat64 consumes is independent of the mean).
	draws int64
}

// initFailures seeds per-machine failure processes at construction, so
// failure events can fire from the first Feed.
func (e *Engine) initFailures() {
	if !e.cfg.Failures.Enabled() {
		return
	}
	root := stats.NewRNG(e.cfg.Failures.Seed)
	e.failures = make([]machineFailureState, len(e.machines))
	for i := range e.failures {
		rng := root.Split()
		e.failures[i] = machineFailureState{
			rng:        rng,
			nextFailAt: pmf.Tick(rng.Exponential(float64(e.cfg.Failures.MTBF))),
			repairAt:   noCompletion,
			draws:      1,
		}
	}
}

// failed reports whether machine i is currently down.
func (e *Engine) failed(i int) bool {
	return e.failures != nil && e.failures[i].repairAt != noCompletion
}

// nextFailureEvent returns the earliest pending failure or repair across
// machines.
func (e *Engine) nextFailureEvent() (machine int, at pmf.Tick, isRepair bool) {
	machine, at = -1, noCompletion
	for i := range e.failures {
		fs := &e.failures[i]
		if e.removedAt(i) {
			// A removed machine's failure process is frozen; ReviveMachine
			// re-arms any schedule that went stale in the interim.
			continue
		}
		if fs.repairAt != noCompletion {
			if at == noCompletion || fs.repairAt < at {
				machine, at, isRepair = i, fs.repairAt, true
			}
			continue
		}
		if fs.nextFailAt != noCompletion && (at == noCompletion || fs.nextFailAt < at) {
			machine, at, isRepair = i, fs.nextFailAt, false
		}
	}
	return machine, at, isRepair
}

// killRunning fails the task machine m is executing, if any, at the
// current clock and leaves the machine idle, the rest of its queue pending.
func (e *Engine) killRunning(m *Machine) {
	if !m.running {
		return
	}
	ts := m.queue[0]
	ts.Finish = e.clock
	e.transition(ts, StatusFailed)
	m.busy += e.clock - ts.Start // the wasted time is still billed
	m.running = false
	m.completeAt = noCompletion
	m.removeAt(0)
}

// handleFailure takes machine i down: the running task dies, pending work
// holds, and a repair is scheduled.
func (e *Engine) handleFailure(i int) {
	fs := &e.failures[i]
	e.killRunning(e.machines[i])
	fs.repairAt = e.clock + 1 + pmf.Tick(fs.rng.Exponential(float64(e.cfg.Failures.MeanRepair)))
	fs.nextFailAt = noCompletion
	fs.draws++
	// The failure frees no capacity but changes completion forecasts; let
	// the pipeline reassess queues and mappings.
	e.mappingEvent(true)
}

// handleRepair brings machine i back and schedules its next failure.
func (e *Engine) handleRepair(i int) {
	fs := &e.failures[i]
	fs.repairAt = noCompletion
	fs.nextFailAt = e.clock + 1 + pmf.Tick(fs.rng.Exponential(float64(e.cfg.Failures.MTBF)))
	fs.draws++
	e.mappingEvent(true)
}

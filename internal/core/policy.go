package core

import (
	"github.com/hpcclab/taskdrop/internal/pet"
	"github.com/hpcclab/taskdrop/internal/pmf"
)

// Context carries everything a dropping policy may consult when deciding
// which tasks to proactively drop from one machine queue at a mapping
// event.
type Context struct {
	Calc *Calculus
	// Cache is the machine's persistent chain cache when the caller owns
	// one (the engine passes each machine's); policies route their chain
	// roots through it via ChainStart. Nil shares the cache the calculus
	// owns (wiped by Recycle), with identical results.
	Cache   *ChainCache
	Machine pet.MachineType
	Now     pmf.Tick
	Queue   []QueueTask
	// BatchPressure is the ratio of unmapped batch tasks to total machine
	// queue slots — a cheap oversubscription signal. Only the threshold
	// baseline consults it (its published form adapts a predetermined
	// threshold to system load); the paper's autonomous policies ignore it.
	BatchPressure float64
	// Grace is the engine's reactive grace window (sim.Config.ReactiveGrace):
	// how long past its deadline a waiting task is still kept and started.
	// Heuristic, ApproxHeuristic, Optimal and Threshold all truncate their
	// chains there (Append), so each forecast runs a task the engine would
	// still start; ApproxHeuristic also values late completions by it.
	// ReactDrop forecasts nothing.
	Grace pmf.Tick
}

// Append chains queue task qt onto s up to the droppers' horizon: Eq. 1
// truncated at qt.Deadline + Grace, the latest start the engine still
// makes. Eq. 2 keeps scoring at the deadline. It is the one place a
// dropper's chain truncates; the mapper and the admission forecast keep
// the bare deadline (ChainState.AppendTask).
func (ctx *Context) Append(s ChainState, qt QueueTask) ChainState {
	return s.Append(qt.Type, qt.Deadline+ctx.Grace)
}

// ChainStart returns the chain state at the context queue's availability
// root and the index of the first pending entry, through the persistent
// per-machine cache when the context carries one.
func (ctx *Context) ChainStart() (ChainState, int) {
	return ctx.Calc.ChainStartCached(ctx.Cache, ctx.Machine, ctx.Now, ctx.Queue)
}

// Policy decides, for one machine queue, which pending tasks to
// proactively drop. Decide returns indexes into ctx.Queue, in ascending
// order; the slice may be scratch of ctx.Calc, valid until its next
// decision. Policies must never return the index of a running task.
type Policy interface {
	// Name identifies the policy in experiment tables (e.g. "Heuristic").
	Name() string
	Decide(ctx *Context) []int
}

// StableDecider is an optional Policy refinement. A policy advertises a
// stable decision when Decide is a pure function of the machine's
// availability root, the queued tasks' types and deadlines, and the
// policy's own (engine-constant) parameters — in particular, it must not
// read Context.BatchPressure or any other per-event input. The engine
// exploits this: when none of those inputs changed bitwise since a
// decision that dropped nothing, re-consulting the policy would reproduce
// the identical empty decision, so the engine skips it outright.
type StableDecider interface {
	// StableDecision reports that repeated decisions over unchanged
	// inputs are identical.
	StableDecision() bool
}

// ReactiveOnly is the no-proactive-dropping baseline ("+ReactDrop" in the
// figures): only the engine's reactive dropping of already-missed tasks
// takes place.
type ReactiveOnly struct{}

// Name implements Policy.
func (ReactiveOnly) Name() string { return "ReactDrop" }

// Decide implements Policy; it never drops anything.
func (ReactiveOnly) Decide(*Context) []int { return nil }

// droppableBounds returns the index range [first, last) of queue entries a
// proactive policy may drop: pending tasks only, and excluding the final
// queue entry whose influence zone is empty (§IV-D).
func droppableBounds(q []QueueTask) (first, last int) {
	first = 0
	if len(q) > 0 && q[0].Running {
		first = 1
	}
	last = len(q) - 1 // the final task is never a candidate
	if last < first {
		last = first
	}
	return first, last
}

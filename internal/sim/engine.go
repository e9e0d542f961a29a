package sim

import (
	"context"
	"fmt"
	"math"

	"github.com/hpcclab/taskdrop/internal/core"
	"github.com/hpcclab/taskdrop/internal/pet"
	"github.com/hpcclab/taskdrop/internal/pmf"
	"github.com/hpcclab/taskdrop/internal/workload"
)

// Config tunes the resource-allocation system around the mapper and
// dropper.
type Config struct {
	// QueueCap bounds each machine queue, including the running task
	// (paper: 6).
	QueueCap int
	// BoundaryExclusion excludes the first and last N tasks (by arrival
	// order) from the measured metrics, so results reflect the
	// oversubscribed steady state (paper: 100).
	BoundaryExclusion int
	// DropOnArrival also runs the proactive dropper on arrival-triggered
	// mapping events where nothing changed in the machine queues. By
	// default the dropper engages on completion events and whenever a
	// reactive drop fires (§V-A: "the dropping mechanism is engaged each
	// time a system notices a task missing its deadline"); enabling this
	// matches the strict Fig. 4 pseudocode at a significant cost in
	// convolution work for identical queue states.
	DropOnArrival bool
	// Failures enables machine failure injection (disabled by default);
	// see FailureConfig.
	Failures FailureConfig
	// ReactiveGrace delays reactive dropping: a waiting task is discarded
	// only once now ≥ deadline + ReactiveGrace. Zero reproduces the
	// paper's model (no value after the deadline); non-zero supports the
	// approximate-computing extension, where slightly-late completions
	// still deliver partial utility (see Result.UtilityPct and
	// core.ApproxHeuristic).
	ReactiveGrace pmf.Tick
	// ColdChains disables the per-machine persistent chain caches: every
	// cache is invalidated at each mapping event, restoring the
	// wipe-everything recycle discipline. A diagnostic/verification knob —
	// the caches are bitwise-transparent, so enabling it must never change
	// a decision (the warm-vs-cold differential tests and cold journal
	// replay hold the engine to that).
	ColdChains bool
}

// DefaultConfig mirrors the paper's experimental setup.
func DefaultConfig() Config {
	return Config{QueueCap: 6, BoundaryExclusion: 100}
}

// Mapper assigns unmapped batch tasks to free machine-queue slots at every
// mapping event. Implementations live in internal/mapping.
type Mapper interface {
	// Name identifies the heuristic in experiment tables (e.g. "MinMin").
	Name() string
	// Map inspects the event's batch and machines and calls ev.Assign for
	// every mapping it commits.
	Map(ev *MappingEvent)
}

// Engine simulates one trial: one PET matrix, one arrival sequence, one
// mapper, one dropping policy. There is one event loop (step) and one way
// in for arrivals (Feed); New merely remembers a trace for RunContext to
// feed.
type Engine struct {
	pet *pet.Matrix
	// trace is the arrival sequence RunContext feeds before draining; nil
	// when the caller feeds the engine itself (NewOpen, NewOpenShard).
	trace   *workload.Trace
	mapper  Mapper
	dropper core.Policy
	// dropperStable caches whether dropper is a core.StableDecider, which
	// lets proactiveDrops skip machines whose decision inputs are bitwise
	// unchanged since an empty decision.
	dropperStable bool
	calc          *core.Calculus
	cfg           Config

	clock pmf.Tick
	// A live task is held by the batch or by exactly one machine queue;
	// a terminal one is held by nothing (see transition).
	machines   []*Machine
	batch      []*TaskState
	totalSlots int
	failures   []machineFailureState
	// addedTypes records the types of runtime-added machines in order (nil
	// on an engine that never grew); it serializes via EngineSnapshot.
	addedTypes []int
	// coldChains disables the persistent chain caches (every machine's is
	// invalidated at each event), restoring the wipe-everything recycle
	// discipline. It exists for the warm-vs-cold differential tests, which
	// assert the caches never change a decision.
	coldChains bool
	// live is the incremental lifecycle census of arrived tasks, kept in
	// sync by Feed/transition so LiveCounts is O(1) — the admission
	// service reads it on every metrics scrape without stalling the
	// decision loop. With tally it is the engine's whole account of the
	// tasks that have settled: Result is a read of the two.
	live  Live
	tally Tally
	// journal, when set, observes every terminal transition (completion,
	// failure, drop) with the tick it happened at — the admission service's
	// WAL hook, or a Recorder (see SetJournal).
	journal func(*TaskState, pmf.Tick)
}

// SetJournal installs (or clears, with nil) the terminal-transition hook:
// fn fires inside every transition to a terminal status, in event order,
// before the transition's mapping pipeline continues, with the task's
// record complete (Finish set). It is the last the engine shows of the
// task. The hook must not mutate the engine.
func (e *Engine) SetJournal(fn func(*TaskState, pmf.Tick)) { e.journal = fn }

// transition moves an arrived task to a new lifecycle state, keeping the
// live census in sync; a terminal state folds the task into the tally and
// shows it to the journal hook. Every post-arrival status change must go
// through here (TestLiveCountsStayConsistent cross-checks against a full
// recount).
func (e *Engine) transition(ts *TaskState, to Status) {
	e.live.add(ts.Status, -1)
	ts.Status = to
	e.live.add(to, 1)
	if !to.Terminal() {
		return
	}
	e.settle(ts)
	if e.journal != nil {
		e.journal(ts, e.clock)
	}
}

// New builds an engine that RunContext drives over the trace: every task
// is fed in arrival order, then the system drains. A nil dropper defaults
// to core.ReactiveOnly. The calculus' compaction budget can be adjusted
// through Calc() before Run.
func New(m *pet.Matrix, tr *workload.Trace, mapper Mapper, dropper core.Policy, cfg Config) *Engine {
	if tr == nil {
		panic("sim: nil trace")
	}
	e := NewOpen(m, mapper, dropper, cfg)
	e.trace = tr
	return e
}

// newEngineWith builds an engine over an explicit machine set — the full
// matrix (NewOpen) or a shard's partition of it (NewOpenShard). The specs'
// Index fields must equal their positions so queue bookkeeping, failure
// state and mapper-visible indexes agree.
func newEngineWith(m *pet.Matrix, specs []pet.MachineSpec, mapper Mapper, dropper core.Policy, cfg Config) *Engine {
	if m == nil || mapper == nil {
		panic("sim: nil PET matrix or mapper")
	}
	if cfg.QueueCap < 1 {
		panic(fmt.Sprintf("sim: queue capacity %d, want >= 1", cfg.QueueCap))
	}
	if cfg.BoundaryExclusion < 0 {
		panic(fmt.Sprintf("sim: boundary exclusion %d, want >= 0", cfg.BoundaryExclusion))
	}
	if len(specs) == 0 {
		panic("sim: engine with no machines")
	}
	if dropper == nil {
		dropper = core.ReactiveOnly{}
	}
	e := &Engine{
		pet:     m,
		mapper:  mapper,
		dropper: dropper,
		calc:    core.NewCalculus(m),
		cfg:     cfg,
		tally:   Tally{Tail: make([]Settled, cfg.BoundaryExclusion)},
	}
	if sd, ok := dropper.(core.StableDecider); ok {
		e.dropperStable = sd.StableDecision()
	}
	e.coldChains = cfg.ColdChains
	e.machines = make([]*Machine, len(specs))
	for i, s := range specs {
		if s.Index != i {
			panic(fmt.Sprintf("sim: machine spec %q has index %d at position %d", s.Name, s.Index, i))
		}
		e.machines[i] = &Machine{Spec: s, completeAt: noCompletion, cache: e.calc.NewChainCache()}
	}
	e.totalSlots = len(specs) * cfg.QueueCap
	e.initFailures()
	return e
}

// Calc exposes the completion-time calculus (e.g. to tune MaxImpulses).
func (e *Engine) Calc() *core.Calculus { return e.calc }

// Now returns the simulation clock.
func (e *Engine) Now() pmf.Tick { return e.clock }

// Run executes the trial to completion (system idle, all tasks terminal)
// and returns the result.
func (e *Engine) Run() *Result {
	res, err := e.RunContext(context.Background())
	if err != nil {
		// Unreachable: the background context is never cancelled.
		panic(err)
	}
	return res
}

// RunContext executes the trial like Run but polls ctx between arrivals:
// when ctx is cancelled mid-run the simulation stops where it is and
// (nil, ctx.Err()) is returned. The engine is not reusable afterwards.
func (e *Engine) RunContext(ctx context.Context) (*Result, error) {
	if e.trace != nil {
		for i := range e.trace.Tasks {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			e.Feed(&e.trace.Tasks[i])
		}
	}
	return e.Drain(), nil
}

// unbounded is the step limit of a drain: every outstanding event is due.
const unbounded = pmf.Tick(math.MaxInt64)

// step is the event loop's body: it fires the earliest completion, failure
// or repair due by limit and reports whether one fired. The tie-break of
// the whole simulator is written here and nowhere else: completion ≤
// arrival < failure. A completion at t ≤ limit fires (it ties ahead of an
// arrival at the same tick, and ahead of a failure at the same tick); a
// failure or repair fires only strictly before limit (an arrival at limit
// ties ahead of it). With no arrival to come (limit unbounded) failure
// events fire only while some task can still make progress, so an
// otherwise-drained system terminates.
func (e *Engine) step(limit pmf.Tick) bool {
	cm, ct := e.nextCompletion()
	fm, ft, isRepair := -1, noCompletion, false
	if e.failures != nil {
		fm, ft, isRepair = e.nextFailureEvent()
	}
	switch {
	case ct != noCompletion && ct <= limit && (ft == noCompletion || ct <= ft):
		e.advance(ct)
		e.handleCompletion(e.machines[cm])
	case ft != noCompletion && ft < limit && (limit != unbounded || e.hasWork()):
		e.advance(ft)
		if isRepair {
			e.handleRepair(fm)
		} else {
			e.handleFailure(fm)
		}
	default:
		return false
	}
	return true
}

// hasWork reports whether any task can still make progress — it gates
// failure-event processing during the drain.
func (e *Engine) hasWork() bool {
	if len(e.batch) > 0 {
		return true
	}
	for _, m := range e.machines {
		if len(m.queue) > 0 {
			return true
		}
	}
	return false
}

// nextCompletion scans the (small, fixed) machine set for the earliest
// outstanding completion.
func (e *Engine) nextCompletion() (machine int, at pmf.Tick) {
	machine, at = -1, noCompletion
	for i, m := range e.machines {
		if m.completeAt != noCompletion && (at == noCompletion || m.completeAt < at) {
			machine, at = i, m.completeAt
		}
	}
	return machine, at
}

func (e *Engine) advance(t pmf.Tick) {
	if t < e.clock {
		panic(fmt.Sprintf("sim: clock moving backwards: %d -> %d", e.clock, t))
	}
	e.clock = t
}

func (e *Engine) handleCompletion(m *Machine) {
	ts := m.queue[0]
	ts.Finish = e.clock
	if ts.Finish < ts.Task.Deadline {
		e.transition(ts, StatusCompletedOnTime)
	} else {
		e.transition(ts, StatusCompletedLate)
	}
	m.busy += ts.Finish - ts.Start
	m.running = false
	m.completeAt = noCompletion
	m.removeAt(0)
	e.mappingEvent(true)
}

// mappingEvent performs the per-event pipeline of Fig. 1/Fig. 4: reactive
// dropping, proactive dropping, mapping, and starting idle machines.
// The calculus is recycled first: all completion-time chains evaluated
// within one event share the arena and the prefix cache. The machines'
// persistent chain caches survive the recycle; each revalidates lazily
// against its root signature when first consulted in the new event.
func (e *Engine) mappingEvent(fromCompletion bool) {
	e.calc.Recycle()
	if e.coldChains {
		for _, m := range e.machines {
			m.cache.Invalidate(core.InvalidateEvent)
			m.tailValid = false
		}
	}
	reacted := e.reactiveDrops()
	if fromCompletion || reacted || e.cfg.DropOnArrival {
		e.proactiveDrops()
	}
	ev := MappingEvent{e: e}
	e.mapper.Map(&ev)
	e.startIdle()
}

// reactiveDrops removes every batched or pending task whose (grace-
// extended) deadline has passed: it can no longer begin while it still has
// value, so per Eq. 1 it is dropped. Reports whether anything was dropped.
func (e *Engine) reactiveDrops() bool {
	cutoff := func(ts *TaskState) pmf.Tick { return ts.Task.Deadline + e.cfg.ReactiveGrace }
	dropped := false
	// Batch queue.
	kept := e.batch[:0]
	for _, ts := range e.batch {
		if cutoff(ts) <= e.clock {
			e.transition(ts, StatusDroppedReactive)
			dropped = true
		} else {
			kept = append(kept, ts)
		}
	}
	e.batch = kept
	// Machine queues (pending entries only; running tasks finish even if
	// late).
	for _, m := range e.machines {
		for i := m.firstPending(); i < len(m.queue); {
			if cutoff(m.queue[i]) <= e.clock {
				e.transition(m.removeAt(i), StatusDroppedReactive)
				dropped = true
			} else {
				i++
			}
		}
	}
	return dropped
}

// proactiveDrops consults the dropping policy for every machine queue.
func (e *Engine) proactiveDrops() {
	pressure := 0.0
	if e.totalSlots > 0 {
		pressure = float64(len(e.batch)) / float64(e.totalSlots)
	}
	for _, m := range e.machines {
		if len(m.queue)-m.firstPending() < 1 {
			continue
		}
		q := m.coreQueue(e.clock)
		// A stable policy re-deciding over a bitwise-unchanged root and
		// queue reproduces its previous decision; when that decision was
		// "drop nothing", re-consulting it is a no-op — skip the walk.
		if e.dropperStable && m.decNone && m.decVer == m.version &&
			m.decGen == m.cache.Gen() && e.calc.RootStable(m.cache, m.Type(), e.clock, q) {
			continue
		}
		ctx := core.Context{
			Calc:          e.calc,
			Cache:         m.cache,
			Machine:       m.Type(),
			Now:           e.clock,
			Queue:         q,
			BatchPressure: pressure,
			Grace:         e.cfg.ReactiveGrace,
		}
		idxs := e.dropper.Decide(&ctx)
		m.decGen, m.decVer, m.decNone = m.cache.Gen(), m.version, len(idxs) == 0
		if len(idxs) == 0 {
			continue
		}
		fp := m.firstPending()
		// Remove back to front so earlier indexes stay valid.
		for k := len(idxs) - 1; k >= 0; k-- {
			i := idxs[k]
			if i < fp || i >= len(m.queue) {
				panic(fmt.Sprintf("sim: dropper %q returned invalid index %d (queue %d, first pending %d)",
					e.dropper.Name(), i, len(m.queue), fp))
			}
			e.transition(m.removeAt(i), StatusDroppedProactive)
		}
	}
}

// startIdle begins execution on any machine that is idle but has queued
// work. Realized execution times come pre-drawn from the trace. Failed
// machines hold their queues until repaired.
func (e *Engine) startIdle() {
	for i, m := range e.machines {
		if m.running || e.failed(i) {
			continue
		}
		for len(m.queue) > 0 {
			ts := m.queue[0]
			if ts.Task.Deadline+e.cfg.ReactiveGrace <= e.clock {
				// Cannot begin while it still has value: reactive drop at
				// start time (Eq. 1 semantics, grace-extended).
				e.transition(m.removeAt(0), StatusDroppedReactive)
				continue
			}
			exec := ts.Task.ExecByType[m.Type()]
			e.transition(ts, StatusRunning)
			ts.Start = e.clock
			m.running = true
			m.completeAt = e.clock + exec
			m.version++
			break
		}
	}
}

// finish validates terminal bookkeeping and assembles the result. Any task
// still in the batch at drain time could never be mapped before expiring;
// it is accounted as reactively dropped.
func (e *Engine) finish() *Result {
	for _, ts := range e.batch {
		e.transition(ts, StatusDroppedReactive)
	}
	e.batch = nil
	for _, m := range e.machines {
		if len(m.queue) != 0 || m.running {
			panic("sim: engine drained with non-empty machine queue")
		}
	}
	return e.buildResult()
}

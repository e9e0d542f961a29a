package sim

import (
	"github.com/hpcclab/taskdrop/internal/core"
	"github.com/hpcclab/taskdrop/internal/pet"
	"github.com/hpcclab/taskdrop/internal/pmf"
)

// noCompletion marks a machine with no outstanding completion event.
const noCompletion = pmf.Tick(-1)

// Machine is one physical machine with its bounded local queue. The head
// of the queue is the running task while running is true; every other
// entry is pending. Queue capacity includes the running task (§V-A: "up to
// six tasks, including the task that is currently executing").
type Machine struct {
	Spec pet.MachineSpec

	queue   []*TaskState
	running bool
	// removed marks a machine taken out of the live set (MemberRemove)
	// until a MemberRevive returns it.
	removed bool
	// completeAt is the absolute completion time of the running task, or
	// noCompletion when idle.
	completeAt pmf.Tick
	// busy accumulates execution time for cost accounting.
	busy pmf.Tick
	// version increments on every queue mutation; it keys the tail
	// completion cache.
	version uint64

	// cache is the machine's persistent chain cache: its availability root
	// and Eq. 1 chain trie survive mapping events until the root signature
	// drifts (see core.ChainCache). Every chain evaluation for this
	// machine — dropper decisions, mapper candidates, audit walks — runs
	// through it.
	cache *core.ChainCache

	// Tail completion-chain cache: the memoized chain state of the last
	// queued task, valid while (cache generation, version, now) all match.
	// The chain lives in the persistent cache, so it survives recycles; a
	// cache reset bumps the generation and drops it.
	tailVer   uint64
	tailNow   pmf.Tick
	tailGen   uint64
	tailState core.ChainState
	tailValid bool

	// Proactive-decision memo: the last dropper consultation returned "no
	// drops", valid while (cache generation, root signature, queue
	// version) all hold and the policy is a core.StableDecider. A stable
	// policy re-deciding over bitwise-unchanged inputs reproduces the
	// identical empty decision, so the engine skips the walk entirely.
	decGen  uint64
	decVer  uint64
	decNone bool
	// qbuf is the reusable backing of coreQueue.
	qbuf []core.QueueTask
}

// Type returns the machine's PET column.
func (m *Machine) Type() pet.MachineType { return m.Spec.Type }

// Queue returns the queue contents (head first). The slice is shared and
// must be treated as read-only by callers.
func (m *Machine) Queue() []*TaskState { return m.queue }

// Running reports whether the machine is currently executing its head.
func (m *Machine) Running() bool { return m.running }

// BusyTicks returns the accumulated execution time.
func (m *Machine) BusyTicks() pmf.Tick { return m.busy }

// firstPending is the queue index of the first non-running task.
func (m *Machine) firstPending() int {
	if m.running {
		return 1
	}
	return 0
}

// coreQueue converts the machine queue into the calculus' view at time
// now. The returned slice is machine-owned scratch, overwritten by the
// next call for this machine; consumers use it within one decision.
func (m *Machine) coreQueue(now pmf.Tick) []core.QueueTask {
	out := m.qbuf[:0]
	for i, ts := range m.queue {
		qt := core.QueueTask{
			Type:     ts.Task.Type,
			Deadline: ts.Task.Deadline,
		}
		if i == 0 && m.running {
			qt.Running = true
			qt.Elapsed = now - ts.Start
		}
		out = append(out, qt)
	}
	m.qbuf = out
	return out
}

// tailChain returns the memoized chain state of the machine's last queued
// task (the availability state a newly appended task would chain from; for
// an empty queue, the machine-free-now root). The state is cached per
// (cache generation, queue version, now): same queue and same clock imply
// the same root signature, so a matching memo is valid even across
// recycles without revalidating the persistent cache. The chain runs
// through that cache, so candidate completions branching off the tail are
// memoized per (task type, deadline) across events, not just within one.
func (m *Machine) tailChain(calc *core.Calculus, now pmf.Tick) core.ChainState {
	if m.tailValid && m.tailGen == m.cache.Gen() && m.tailVer == m.version && m.tailNow == now {
		return m.tailState
	}
	q := m.coreQueue(now)
	s, start := calc.ChainStartCached(m.cache, m.Type(), now, q)
	for i := start; i < len(q); i++ {
		s = s.AppendTask(q[i])
	}
	m.tailState = s
	m.tailGen, m.tailVer, m.tailNow, m.tailValid = m.cache.Gen(), m.version, now, true
	return s
}

// removeAt deletes the queue entry at index i and bumps the version.
func (m *Machine) removeAt(i int) *TaskState {
	ts := m.queue[i]
	m.queue = append(m.queue[:i], m.queue[i+1:]...)
	m.version++
	return ts
}

// push appends a task to the queue tail and bumps the version.
func (m *Machine) push(ts *TaskState) {
	m.queue = append(m.queue, ts)
	m.version++
}

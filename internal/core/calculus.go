// Package core implements the paper's primary contribution: the
// probabilistic completion-time calculus over machine queues (§IV-B/C), the
// instantaneous-robustness objective (Eq. 3), and the three proactive
// task-dropping policies evaluated in §V — the autonomous heuristic
// (§IV-E), the optimal subset search (§IV-D), and the threshold baseline of
// prior work.
package core

import (
	"sync/atomic"

	"github.com/hpcclab/taskdrop/internal/pet"
	"github.com/hpcclab/taskdrop/internal/pmf"
)

// QueueTask is the calculus' view of one entry in a machine queue.
type QueueTask struct {
	Type     pet.TaskType
	Deadline pmf.Tick
	// Running marks the task currently executing; only the queue head may
	// be running. Running tasks can never be dropped.
	Running bool
	// Elapsed is how long a running task has been executing, in ticks.
	Elapsed pmf.Tick
}

// Calculus evaluates completion-time PMFs and chances of success for
// machine queues against a PET matrix. MaxImpulses bounds the impulse count
// of intermediate completion PMFs (mass-preserving compaction); see
// pmf.DefaultMaxImpulses.
//
// # Memory contract
//
// Every PMF the calculus returns (from Append, Availability,
// CompletionPMFs, ChainState.PMF, ...) may alias the calculus' internal
// arena. Such PMFs stay valid until the next call to Recycle, which
// reclaims all arena storage in O(1). The simulation engine recycles once
// per mapping event, so within one dropping/mapping decision everything
// composes freely; a caller that caches a PMF across decisions must pin it
// first with pmf.PMF.CloneInto. A Calculus that is never recycled keeps
// working (storage is then reclaimed by the garbage collector), it just
// isn't allocation-free.
//
// Chain PMFs (ChainStart, ChainStartCached and appends descending from
// them, hence CompletionPMFs and Availability too) are pinned in a
// ChainCache's own arena instead and stay valid until that cache
// invalidates. A caller's cache survives Recycle and invalidates when any
// mapping event drifts its root, so the only safe lifetime across events
// remains a CloneInto copy the caller owns. The calculus-owned cache, which
// serves every caller that passes none, invalidates at Recycle and when a
// chain is started from a different root (machine type, clock or running
// head): consume one queue's PMFs before starting on the next.
//
// # Shared-prefix chain cache
//
// The calculus memoizes every Eq. 1 chain it evaluates in one structure,
// the ChainCache trie (chaincache.go): ChainStartCached returns the cached
// availability root of a queue and ChainState.Append walks or extends the
// trie one task at a time. Policies evaluating many drop-candidate
// scenarios over one queue — "the queue with task i removed" — therefore
// share all common prefix convolutions instead of rechaining from
// availability, and the mapper's tail-completion chains reuse the prefixes
// the dropper already computed. The engine owns one cache per machine,
// which carries the sharing across events; a caller without one shares
// within an event through the calculus-owned cache.
//
// A Calculus owns a convolution workspace and is therefore not safe for
// concurrent use; give each simulation engine (or test goroutine) its own.
type Calculus struct {
	PET         *pet.Matrix
	MaxImpulses int
	ws          pmf.Workspace

	// epoch counts Recycles. own is the cache behind ChainStartCached(nil,
	// ...), invalidated by Recycle.
	epoch uint64
	own   *ChainCache

	// moments lazily caches, per PET cell (task type × machine type), the
	// moments of the execution PMF: execution PMFs are matrix constants,
	// so every mean lower bound reuses them instead of re-walking exec.
	moments []pmf.Moments

	// Policy scratch, reused across Decide calls (see heuristicWalk,
	// CompletionPMFs, SuccessProbs); scratchD backs the heuristic's drop
	// list.
	scratchQ []QueueTask
	scratchI []int
	scratchD []int
	scratchP []pmf.PMF
	scratchF []float64

	// Introspection counters (see Stats). Atomics because metrics scrapes
	// read them while the owning decision loop writes. That loop is the
	// only writer, so each count is bumped as Store(Load()+n), a load and
	// a store rather than an atomic read-modify-write: no increment can be
	// lost, and a reader still sees each value whole.
	chainHits   atomic.Uint64
	chainMisses atomic.Uint64
	rootHits    atomic.Uint64
	rootMisses  atomic.Uint64
	widths      [NumWidthBuckets]atomic.Uint64
	widthSum    atomic.Uint64
	invEvent    atomic.Uint64
	invChurn    atomic.Uint64
	invOverflow atomic.Uint64
	pinnedBytes atomic.Int64
	candEval    atomic.Uint64
	candPruned  atomic.Uint64
	winBounded  atomic.Uint64
	winEval     atomic.Uint64
}

// chainKey identifies one Eq. 1 transition out of a chain node: appending
// a task of type t whose truncation deadline leaves the node's first k
// impulses executing. The kernel reads the deadline exactly once, to find
// that split, so (t, k) — not (t, deadline) — is what the result is a
// function of: deadlines that cut the node's PMF at the same impulse share
// one edge, and a node has at most types × (impulses + 1) edges however
// diverse the deadlines appended to it. The machine type is fixed by the
// root the node descends from.
type chainKey struct {
	t pet.TaskType
	k int32
}

// chainEdge is one memoized transition.
type chainEdge struct {
	key  chainKey
	node int32
}

// chainNode is one memoized chain state: the completion PMF of its prefix
// plus the transitions already taken from it. Edges are scanned linearly:
// queue-interior nodes carry a handful, and on a tail node, where every
// mapper candidate branches, hits transpose the found edge one slot
// forward so the hottest (type, split) pairs bubble to the front.
type chainNode struct {
	cp    pmf.PMF
	edges []chainEdge
}

// chainTrie is one ChainCache's arena of memoized chain nodes, wiped by
// the cache's invalidation.
type chainTrie struct {
	nodes []chainNode
}

func (t *chainTrie) reset() { t.nodes = t.nodes[:0] }

// newNode appends a trie node, reusing the edge storage of a node
// recycled by an earlier reset when available.
func (t *chainTrie) newNode(cp pmf.PMF) int32 {
	if len(t.nodes) < cap(t.nodes) {
		t.nodes = t.nodes[:len(t.nodes)+1]
		nd := &t.nodes[len(t.nodes)-1]
		nd.cp = cp
		nd.edges = nd.edges[:0]
	} else {
		t.nodes = append(t.nodes, chainNode{cp: cp})
	}
	return int32(len(t.nodes) - 1)
}

// NewCalculus returns a calculus over the given PET with the default
// compaction budget.
func NewCalculus(m *pet.Matrix) *Calculus {
	c := &Calculus{PET: m, MaxImpulses: pmf.DefaultMaxImpulses}
	c.own = c.NewChainCache()
	return c
}

// Recycle starts a new decision epoch: it reclaims the impulse arena in
// O(1) and invalidates the calculus-owned chain cache, and with them every
// PMF previously returned by this calculus through either. The owning
// engine calls it once per mapping event; steady-state chain evaluation
// after warm-up then allocates nothing. The ChainCaches callers own — and
// every PMF pinned in them — survive Recycle untouched; they are reclaimed
// per machine, by invalidation.
func (c *Calculus) Recycle() {
	c.ws.Reset()
	c.epoch++
	c.own.Invalidate(InvalidateEvent)
}

// exec returns the execution-time PMF for (t, mt).
func (c *Calculus) exec(t pet.TaskType, mt pet.MachineType) pmf.PMF {
	return c.PET.ExecPMF(t, mt)
}

// execMoments returns the cached moments of the (t, mt) execution PMF,
// computing them on first use. A massless cell is recomputed each time, at
// no cost.
func (c *Calculus) execMoments(t pet.TaskType, mt pet.MachineType) pmf.Moments {
	nm := c.PET.NumMachineTypes()
	if c.moments == nil {
		c.moments = make([]pmf.Moments, c.PET.NumTaskTypes()*nm)
	}
	m := &c.moments[int(t)*nm+int(mt)]
	if m.Mass == 0 {
		*m = c.exec(t, mt).Moments()
	}
	return *m
}

// appendPMF chains Eq. 1 once through the workspace kernel and compacts
// the result (in place when freshly produced) to the calculus budget.
func (c *Calculus) appendPMF(prev pmf.PMF, t pet.TaskType, dl pmf.Tick, mt pet.MachineType) pmf.PMF {
	cp := c.ws.NextCompletionCompact(prev, c.exec(t, mt), dl, c.MaxImpulses)
	c.observeWidth(cp.Len())
	return cp
}

// Append chains Eq. 1 once: the completion PMF of a task of type t with
// deadline dl on machine type mt, whose predecessor completes according to
// prev. The result is compacted to the calculus budget. It may alias the
// calculus arena (see the memory contract above).
func (c *Calculus) Append(prev pmf.PMF, t pet.TaskType, dl pmf.Tick, mt pet.MachineType) pmf.PMF {
	return c.appendPMF(prev, t, dl, mt)
}

// availability computes the root PMF of queue q on machine type mt at now:
// the running head's conditional completion time, or the free machine.
func (c *Calculus) availability(mt pet.MachineType, now pmf.Tick, q []QueueTask) pmf.PMF {
	if len(q) > 0 && q[0].Running {
		return c.ws.ConditionalRemainingShift(c.exec(q[0].Type, mt), q[0].Elapsed, now)
	}
	return c.ws.Delta(now)
}

// ChainState is a memoized position in a completion-time chain: the
// completion PMF of some prefix of kept tasks, rooted at a machine's
// availability. Appending a task of the same type whose truncation
// deadline splits the state's PMF at the same impulse (see chainKey)
// computes the convolution once. A state lives in the trie of the
// ChainCache it was started from and is invalidated, like the PMFs it
// holds, by that cache's reset.
type ChainState struct {
	c    *Calculus
	cc   *ChainCache
	mt   pet.MachineType
	node int32
}

// ChainStart returns the chain state at machine mt's availability for
// queue q at time now, together with the index of the first pending
// (droppable) entry in q, through the calculus-owned cache. If the head of
// q is running, the availability is its conditional completion time;
// otherwise the machine is free now.
func (c *Calculus) ChainStart(mt pet.MachineType, now pmf.Tick, q []QueueTask) (ChainState, int) {
	return c.ChainStartCached(nil, mt, now, q)
}

// PMF returns the completion PMF of the state's prefix, pinned in the
// state's cache (valid until that cache invalidates).
func (s ChainState) PMF() pmf.PMF { return s.cc.trie.nodes[s.node].cp }

// Append chains one task of type t with truncation deadline dl onto the
// state, reusing the memoized result if this transition was already
// evaluated since the cache's last invalidation. Fresh results are pinned
// in the cache, so a caller's cache carries them across Recycle.
func (s ChainState) Append(t pet.TaskType, dl pmf.Tick) ChainState {
	c := s.c
	tr := &s.cc.trie
	// Rank(dl-1) is the kernel's own split: the impulses strictly before dl.
	key := chainKey{t: t, k: int32(tr.nodes[s.node].cp.Rank(dl - 1))}
	edges := tr.nodes[s.node].edges
	for i, e := range edges {
		if e.key == key {
			c.chainHits.Store(c.chainHits.Load() + 1)
			if i > 0 {
				edges[i-1], edges[i] = edges[i], edges[i-1]
			}
			return ChainState{c: c, cc: s.cc, mt: s.mt, node: e.node}
		}
	}
	c.chainMisses.Store(c.chainMisses.Load() + 1)
	prev := tr.nodes[s.node].cp
	cp := s.cc.adopt(prev, c.appendPMF(prev, t, dl, s.mt))
	id := tr.newNode(cp) // may grow tr.nodes; re-take the parent below
	nd := &tr.nodes[s.node]
	nd.edges = append(nd.edges, chainEdge{key: key, node: id})
	return ChainState{c: c, cc: s.cc, mt: s.mt, node: id}
}

// MeanLowerBound returns pmf.SplitMeanLowerBound(s.PMF(), exec,
// exec.Moments(), s.PMF().SplitMoments(s.PMF().Rank(dl-1))) for the
// (t, mt) execution PMF — a lower bound
// on s.Append(t, dl).PMF().Mean(), -Inf when none can be given — without
// convolving or touching the trie. Mappers use it to skip candidates that
// cannot beat their incumbent. The state's split moments at dl come from
// its cache's memo, so asking one state at many deadlines walks each split
// of its PMF once.
func (s ChainState) MeanLowerBound(t pet.TaskType, dl pmf.Tick) float64 {
	prev := s.PMF()
	return pmf.SplitMeanLowerBound(prev, s.c.exec(t, s.mt), s.c.execMoments(t, s.mt), s.cc.bound.at(s.node, prev, prev.Rank(dl-1)))
}

// AppendTask is Append for a QueueTask truncated at its bare deadline: the
// mapper's tail chains and the admission forecast price a queue this way.
// Droppers chain to the engine's horizon instead (Context.Append). The
// mapper stays strict because one horizon for the whole calculus costs
// robustness: on spec at 30 000 tasks, PAM, grace 300 (4 trials, seed 7,
// 2 vCPUs), a mapper graced like the droppers cut the heuristic from 52.81
// to 43.95 % and Optimal from 55.06 to 49.78 %, while graced droppers over
// this strict mapper moved no Optimal cell by more than 0.15 pp and left
// Heuristic and ApproxHeuristic bit-identical.
func (s ChainState) AppendTask(qt QueueTask) ChainState {
	return s.Append(qt.Type, qt.Deadline)
}

// CompletionPMFs returns the completion-time PMF of every task in the
// queue, in queue order, per Eq. 1. Index 0 of a running head is its
// conditional completion time. Each PMF is compacted to the calculus
// budget and pinned in the calculus-owned cache: valid until Recycle or the
// next chain started from another root (see the memory contract).
// The returned slice is calculus-owned scratch, overwritten by the next
// CompletionPMFs call (same contract as scratchQ): consume it within one
// decision, or copy it out.
func (c *Calculus) CompletionPMFs(mt pet.MachineType, now pmf.Tick, q []QueueTask) []pmf.PMF {
	if cap(c.scratchP) < len(q) {
		c.scratchP = make([]pmf.PMF, len(q))
	}
	out := c.scratchP[:len(q)]
	s, start := c.ChainStart(mt, now, q)
	if start == 1 {
		out[0] = s.PMF()
	}
	for i := start; i < len(q); i++ {
		s = s.AppendTask(q[i])
		out[i] = s.PMF()
	}
	return out
}

// SuccessProbs returns the chance of success (Eq. 2) of every task in the
// queue: the mass of its completion PMF strictly before its deadline.
// The returned slice is calculus-owned scratch, overwritten by the next
// SuccessProbs call (same contract as scratchQ).
func (c *Calculus) SuccessProbs(mt pet.MachineType, now pmf.Tick, q []QueueTask) []float64 {
	if cap(c.scratchF) < len(q) {
		c.scratchF = make([]float64, len(q))
	}
	ps := c.scratchF[:len(q)]
	s, start := c.ChainStart(mt, now, q)
	if start == 1 {
		ps[0] = s.PMF().MassBefore(q[0].Deadline)
	}
	for i := start; i < len(q); i++ {
		s = s.AppendTask(q[i])
		ps[i] = s.PMF().MassBefore(q[i].Deadline)
	}
	return ps
}

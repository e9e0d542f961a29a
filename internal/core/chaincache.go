package core

import (
	"github.com/hpcclab/taskdrop/internal/pet"
	"github.com/hpcclab/taskdrop/internal/pmf"
)

// ChainCache is the calculus' one chain memo: a trie of Eq. 1 chains under
// one availability root.
//
// Recycle wipes the calculus' arena because its storage is shared across
// machines and events. But the Eq. 1 chains of a single machine are a pure
// function of (availability root, appended (type, split) sequence — see
// chainKey): if the root PMF is bitwise the inputs cold evaluation would
// use, every memoized transition under it is bitwise what cold evaluation
// would produce. A ChainCache exploits that: it owns a machine's trie and
// pins the trie's PMFs in its own arena, so the whole structure survives
// Recycle; it is invalidated — wholesale, per machine — only when the
// machine's root signature drifts. The cache the calculus owns for callers
// without one is the same structure on the shortest lifetime: Recycle
// invalidates it too, which is the wipe-every-event discipline the
// persistent caches are measured against (sim.Config.ColdChains).
//
// The root signature is where the time-shift tolerance lives. A running
// head's availability is ConditionalRemainingShift(exec, elapsed, now):
// impulses with T > elapsed survive, shifted to T - elapsed + now =
// T + start and renormalized by the surviving mass. Between events, now
// and elapsed both advance, but start = now - elapsed is constant and the
// surviving set only changes when elapsed crosses an impulse of exec. So
// the availability is a step function of the clock, bit-stable while
// (head type, start, conditioning cut) hold — the cache revalidates by
// recomputing that cheap signature, not the PMF. Idle machines
// (availability Delta(now)) and degenerate tails (Delta(now+1)) do depend
// on the clock and carry now in their signature; they go cold on every
// clock advance, which is also exactly when their cached chains would be
// wrong.
//
// This is the delta-maintenance discipline of the queue-head transition:
// when a head completes and its successor starts, the new availability is
// one conditional shift/renormalize pass over the successor's execution
// PMF (the availability operation itself — never a re-convolution), and
// the chain suffix behind it rebuilds through memoized appends. The
// fallback to cold evaluation is the signature mismatch: any event that
// changes what cold evaluation would compute — head start, cut drift,
// clock drift on a now-dependent root — resets the machine's cache, so
// the delta path can never change results.
type ChainCache struct {
	c    *Calculus
	trie chainTrie
	pin  pinArena

	valid bool
	sig   rootSig
	root  int32
	// gen increments on every reset; external memos (a machine's tail-chain
	// state) key on it.
	gen uint64
	// checked is 1 + the epoch of the last ChainStartCached validation
	// (0 = never): the deferred-overflow guard, see ChainStartCached.
	checked uint64
	// overflowed defers an over-budget reset to the next epoch boundary so
	// the decision in flight keeps its pinned PMFs.
	overflowed bool
	maxPinned  int
}

// rootSig captures, bitwise, everything a machine's availability root PMF
// depends on. Two equal signatures guarantee cold evaluation would produce
// the identical bit pattern, so a cached root (and every chain under it)
// may be reused.
type rootSig struct {
	// mt is the machine type: constant for a machine's own cache, part of
	// the root for the calculus-owned cache every machine type shares.
	mt pet.MachineType
	// running distinguishes the idle root Delta(now) from a conditional
	// completion root.
	running bool
	// nowDep marks roots whose bits depend on the clock itself: idle
	// deltas and degenerate tails (cut == len(exec) → Delta(now+1)). For
	// those, now joins the signature and the cache goes cold on every
	// clock advance.
	nowDep bool
	rt     pet.TaskType
	// start is the running head's absolute start tick (now - elapsed):
	// surviving impulses land at T + start regardless of the clock.
	start pmf.Tick
	// cut is the number of exec impulses removed by conditioning
	// (T <= elapsed), which fixes both the surviving set and the
	// renormalization factor; -1 flags the elapsed <= 0 branch, which
	// shifts without renormalizing and is a different bit pattern even
	// when the cut would be 0.
	cut int32
	now pmf.Tick
}

// InvalidationReason labels why a machine's persistent chain cache was
// reset; the service exports the counts as
// taskdrop_chain_invalidations_total{reason}.
type InvalidationReason uint8

const (
	// InvalidateEvent: the root signature drifted — a mapping event or
	// clock advance changed the availability inputs (head started or
	// finished, conditioning cut crossed an impulse, now-dependent root
	// saw a new tick).
	InvalidateEvent InvalidationReason = iota
	// InvalidateChurn: the machine left or rejoined the live set
	// (membership ops, snapshot restore).
	InvalidateChurn
	// InvalidateOverflow: the pinned arena outgrew its budget and the
	// cache was recycled wholesale at the next epoch boundary.
	InvalidateOverflow
)

// DefaultMaxPinnedImpulses bounds the impulse storage one machine's chain
// cache pins before it is recycled wholesale (reason "overflow"): 16Ki
// impulses = 256 KiB, roughly 500 budget-width chain nodes. Edges are
// keyed by (type, split), so one node branches at most types × (budget+1)
// ways whatever deadlines arrive; what the budget stops is depth — a
// long-lived root under which the dropper's keep/drop scenarios and the
// mapper's candidates keep opening new (type, split) paths level after
// level without a signature drift ever clearing them.
const DefaultMaxPinnedImpulses = 16 << 10

// NewChainCache returns an empty persistent chain cache bound to c. The
// engine owns one per machine and passes it to ChainStartCached (directly
// or via Context.ChainStart); a caller that passes nil there shares the
// cache the calculus owns, which lives until the next Recycle.
func (c *Calculus) NewChainCache() *ChainCache {
	return &ChainCache{c: c, maxPinned: DefaultMaxPinnedImpulses}
}

// Gen returns the cache generation, incremented by every reset. External
// memos holding a ChainState from this cache must revalidate on it.
func (cc *ChainCache) Gen() uint64 { return cc.gen }

// Invalidate resets the cache, dropping every pinned chain, and records
// the reason. Callers use it for lifecycle transitions the signature
// cannot see (machine churn, snapshot restore). Invalidating an empty
// cache is a no-op and not counted. PMFs previously obtained through the
// cache become invalid.
func (cc *ChainCache) Invalidate(reason InvalidationReason) {
	if !cc.valid && cc.pin.committed == 0 {
		return
	}
	cc.resetFor(reason)
}

// resetFor drops the trie and pinned arena, bumps the generation and
// counts the reason on the owning calculus.
func (cc *ChainCache) resetFor(reason InvalidationReason) {
	cc.trie.reset()
	cc.pin.reset(cc.c)
	cc.valid = false
	cc.overflowed = false
	cc.gen++
	switch reason {
	case InvalidateEvent:
		cc.c.invEvent.Store(cc.c.invEvent.Load() + 1)
	case InvalidateChurn:
		cc.c.invChurn.Store(cc.c.invChurn.Load() + 1)
	case InvalidateOverflow:
		cc.c.invOverflow.Store(cc.c.invOverflow.Load() + 1)
	}
}

// adopt moves a freshly convolved chain PMF into pinned storage. A
// pass-through result (Eq. 1 carried the predecessor through unchanged,
// e.g. a task already past its truncation deadline) aliases the
// predecessor's pinned storage and is kept as is — the common case in
// oversubscribed queues, where long carry chains would otherwise pin one
// copy per node.
func (cc *ChainCache) adopt(prev, cp pmf.PMF) pmf.PMF {
	if sameStorage(prev, cp) {
		return prev
	}
	out := cc.pin.pin(cc.c, cp)
	if cc.pin.committed > cc.maxPinned {
		cc.overflowed = true
	}
	return out
}

// sameStorage reports whether two PMFs alias the identical impulse slice.
func sameStorage(a, b pmf.PMF) bool {
	ai, bi := a.Impulses(), b.Impulses()
	return len(ai) == len(bi) && (len(ai) == 0 || &ai[0] == &bi[0])
}

// RootStable reports whether cc's cached availability root is still
// bitwise the root that (mt, now, q) would produce — i.e. whether chain
// states and decisions derived under cc's current generation remain
// current. It is a pure signature comparison: no chains are evaluated, no
// state changes, and a pending overflow recycle is not triggered (an
// overflowed cache still holds bitwise-correct chains until it is reset).
func (c *Calculus) RootStable(cc *ChainCache, mt pet.MachineType, now pmf.Tick, q []QueueTask) bool {
	if !cc.valid {
		return false
	}
	sig, _ := c.rootSignature(mt, now, q)
	return sig == cc.sig
}

// rootSignature derives the cache signature and the first-pending index
// for (mt, now, q).
func (c *Calculus) rootSignature(mt pet.MachineType, now pmf.Tick, q []QueueTask) (rootSig, int) {
	first := 0
	sig := rootSig{mt: mt}
	if len(q) > 0 && q[0].Running {
		first = 1
		sig.running = true
		sig.rt = q[0].Type
		sig.start = now - q[0].Elapsed
		if q[0].Elapsed <= 0 {
			sig.cut = -1
		} else {
			exec := c.exec(q[0].Type, mt)
			cut := exec.Rank(q[0].Elapsed)
			sig.cut = int32(cut)
			if cut == exec.Len() {
				// Tail mass gone: availability degenerates to Delta(now+1).
				sig.nowDep, sig.now = true, now
			}
		}
	} else {
		sig.nowDep, sig.now = true, now
	}
	return sig, first
}

// ChainStartCached returns the chain state at the availability root of
// queue q on machine type mt at now, and the index of q's first pending
// entry, through cc: it revalidates the cached root against the current
// signature, resetting the cache when the signature drifted (reason
// "event") or a deferred overflow is pending, and returns a ChainState
// whose appends memoize into — and pin inside — the cache. A nil cc stands
// for the cache the calculus owns, whose chains live until the next Recycle
// or the next start from a different root. Cached results are bitwise
// identical to cold evaluation (see the ChainCache comment).
func (c *Calculus) ChainStartCached(cc *ChainCache, mt pet.MachineType, now pmf.Tick, q []QueueTask) (ChainState, int) {
	if cc == nil {
		cc = c.own
	}
	sig, first := c.rootSignature(mt, now, q)
	if cc.overflowed && cc.checked != c.epoch+1 {
		// The budget blew during an earlier epoch; reset now that no
		// decision holds the pinned PMFs.
		cc.resetFor(InvalidateOverflow)
	}
	if cc.valid && cc.sig != sig {
		cc.resetFor(InvalidateEvent)
	}
	cc.checked = c.epoch + 1
	if cc.valid {
		c.rootHits.Store(c.rootHits.Load() + 1)
		return ChainState{c: c, cc: cc, mt: mt, node: cc.root}, first
	}
	c.rootMisses.Store(c.rootMisses.Load() + 1)
	avail := cc.pin.pin(c, c.availability(mt, now, q))
	if cc.pin.committed > cc.maxPinned {
		cc.overflowed = true
	}
	cc.root = cc.trie.newNode(avail)
	cc.sig = sig
	cc.valid = true
	return ChainState{c: c, cc: cc, mt: mt, node: cc.root}, first
}

// pinArena is a ChainCache's impulse store: append-only blocks holding
// CloneInto copies of chain PMFs. pin is the only way storage enters;
// reset is the only way it leaves (whole-cache invalidation) — there is no
// per-PMF free, which is what makes pinning O(n) copy with zero
// bookkeeping. Blocks double up to a cap, like the workspace arena.
type pinArena struct {
	block     []pmf.Impulse
	old       [][]pmf.Impulse // full blocks still referenced by trie nodes
	used      int
	committed int // impulses pinned since the last reset, across all blocks
}

const (
	minPinBlockImpulses = 512
	maxPinBlockImpulses = 16 << 10
	pinImpulseBytes     = 16
)

// pin copies p into arena storage and returns the pinned PMF. Empty PMFs
// need no storage and pass through.
func (a *pinArena) pin(c *Calculus, p pmf.PMF) pmf.PMF {
	n := p.Len()
	if n == 0 {
		return p
	}
	if a.used+n > len(a.block) {
		if a.block != nil {
			a.old = append(a.old, a.block)
		}
		size := 2 * len(a.block)
		if size > maxPinBlockImpulses {
			size = maxPinBlockImpulses
		}
		if size < minPinBlockImpulses {
			size = minPinBlockImpulses
		}
		if size < n {
			size = n
		}
		a.block = make([]pmf.Impulse, size)
		a.used = 0
	}
	out, _ := p.CloneInto(a.block[a.used : a.used : a.used+n])
	a.used += n
	a.committed += n
	c.pinnedBytes.Store(c.pinnedBytes.Load() + int64(n)*pinImpulseBytes)
	return out
}

// reset drops all pinned storage. The current block is kept for reuse;
// full blocks are released to the collector once no stale ChainState
// references them (stale states are fenced off by the generation bump).
func (a *pinArena) reset(c *Calculus) {
	if a.committed > 0 {
		c.pinnedBytes.Store(c.pinnedBytes.Load() - int64(a.committed)*pinImpulseBytes)
	}
	a.old = nil
	a.used = 0
	a.committed = 0
}

package core

import mathbits "math/bits"

// Calculus introspection: cheap always-on counters behind the service's
// /metrics series (chain-cache effectiveness, PMF impulse widths, arena
// high-water). They are the before-picture any calculus optimization —
// per-machine chain invalidation in particular — will be judged against.

// NumWidthBuckets is the number of impulse-width histogram buckets:
// powers of two 1,2,4,8,16,32 plus an overflow bucket. The default
// compaction budget (pmf.DefaultMaxImpulses = 32) means steady-state
// chains should never land in the overflow bucket.
const NumWidthBuckets = 7

// WidthBucketBound returns the inclusive upper bound of width bucket i,
// or -1 for the overflow (+Inf) bucket.
func WidthBucketBound(i int) int {
	if i >= NumWidthBuckets-1 {
		return -1
	}
	return 1 << i
}

// widthBucket maps an impulse count onto its histogram bucket.
func widthBucket(n int) int {
	if n <= 1 {
		return 0
	}
	b := mathbits.Len(uint(n - 1)) // 2->1, 3..4->2, 5..8->3, 9..16->4, 17..32->5, 33..64->6
	if b >= NumWidthBuckets {
		b = NumWidthBuckets - 1
	}
	return b
}

// observeWidth records the impulse count of one freshly computed (not
// memoized) Eq. 1 completion PMF.
func (c *Calculus) observeWidth(n int) {
	b := &c.widths[widthBucket(n)]
	b.Store(b.Load() + 1)
	c.widthSum.Store(c.widthSum.Load() + uint64(n))
}

// CountCandidate records one mapper candidate (a tentative append of a
// batch task to a machine's tail) whose completion PMF was evaluated.
func (c *Calculus) CountCandidate() { c.candEval.Store(c.candEval.Load() + 1) }

// CountPruned records n mapper candidates skipped unconvolved because the
// mapper could show — from their mean lower bound, or from its own
// ordering rule — that they could not change its choice.
func (c *Calculus) CountPruned(n int) { c.candPruned.Store(c.candPruned.Load() + uint64(n)) }

// CalcStats is a point-in-time snapshot of a calculus' introspection
// counters. Counts are cumulative since construction (Recycle does not
// reset them).
type CalcStats struct {
	// ChainHits/ChainMisses count Eq. 1 chain transitions served from the
	// shared-prefix trie vs freshly convolved (ChainState.Append).
	ChainHits   uint64
	ChainMisses uint64
	// RootHits/RootMisses count availability-root lookups (ChainStart).
	RootHits   uint64
	RootMisses uint64
	// Widths[i] counts freshly computed completion PMFs whose impulse
	// count fell in bucket i (see WidthBucketBound); WidthSum is the total
	// impulse count over all of them.
	Widths   [NumWidthBuckets]uint64
	WidthSum uint64
	// ArenaHighWaterBytes is the convolution workspace's peak committed
	// arena footprint (see pmf.Workspace.HighWaterBytes).
	ArenaHighWaterBytes int64
	// InvalidationsEvent/Churn/Overflow count persistent chain-cache
	// resets by reason (see InvalidationReason).
	InvalidationsEvent    uint64
	InvalidationsChurn    uint64
	InvalidationsOverflow uint64
	// PinnedBytes is the impulse storage currently pinned across every
	// ChainCache bound to this calculus — what survives a Recycle.
	PinnedBytes int64
	// CandidatesEvaluated/CandidatesPruned count mapper candidates whose
	// completion PMF was looked up or convolved vs ruled out without one —
	// the mapper's useful-work ratio.
	CandidatesEvaluated uint64
	CandidatesPruned    uint64
	// WindowsBounded/WindowsEvaluated count the dropper's scenario
	// comparisons: heuristic verdicts settled from the kept window alone
	// (no task is worth more than 1) vs those that convolved the drop
	// scenario; Optimal counts subtrees cut by the same bound vs leaves
	// scored.
	WindowsBounded   uint64
	WindowsEvaluated uint64
}

// Add folds o into st: counters and pinned bytes sum, the arena high-water
// mark (a per-calculus peak) takes the maximum.
func (st *CalcStats) Add(o CalcStats) {
	st.ChainHits += o.ChainHits
	st.ChainMisses += o.ChainMisses
	st.RootHits += o.RootHits
	st.RootMisses += o.RootMisses
	for i := range st.Widths {
		st.Widths[i] += o.Widths[i]
	}
	st.WidthSum += o.WidthSum
	st.ArenaHighWaterBytes = max(st.ArenaHighWaterBytes, o.ArenaHighWaterBytes)
	st.InvalidationsEvent += o.InvalidationsEvent
	st.InvalidationsChurn += o.InvalidationsChurn
	st.InvalidationsOverflow += o.InvalidationsOverflow
	st.PinnedBytes += o.PinnedBytes
	st.CandidatesEvaluated += o.CandidatesEvaluated
	st.CandidatesPruned += o.CandidatesPruned
	st.WindowsBounded += o.WindowsBounded
	st.WindowsEvaluated += o.WindowsEvaluated
}

// Stats snapshots the calculus' introspection counters. Safe to call from
// any goroutine while the owning loop keeps deciding.
func (c *Calculus) Stats() CalcStats {
	st := CalcStats{
		ChainHits:             c.chainHits.Load(),
		ChainMisses:           c.chainMisses.Load(),
		RootHits:              c.rootHits.Load(),
		RootMisses:            c.rootMisses.Load(),
		WidthSum:              c.widthSum.Load(),
		ArenaHighWaterBytes:   c.ws.HighWaterBytes(),
		InvalidationsEvent:    c.invEvent.Load(),
		InvalidationsChurn:    c.invChurn.Load(),
		InvalidationsOverflow: c.invOverflow.Load(),
		PinnedBytes:           c.pinnedBytes.Load(),
		CandidatesEvaluated:   c.candEval.Load(),
		CandidatesPruned:      c.candPruned.Load(),
		WindowsBounded:        c.winBounded.Load(),
		WindowsEvaluated:      c.winEval.Load(),
	}
	for i := range st.Widths {
		st.Widths[i] = c.widths[i].Load()
	}
	return st
}
